// Streaming-pipeline benchmarks: BenchmarkStreamingFigures sweeps the
// worker-pool size over the shared campaign dataset (the figures are
// bit-identical for every count, so the sub-benchmarks measure pure
// pipeline scaling), and TestStreamingBenchJSON emits the same sweep as
// a machine-readable BENCH_streaming.json for `make bench-json` / CI.
package satcell_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"satcell/internal/core"
	"satcell/internal/dataset"
	"satcell/internal/obs"
)

// streamBenchWorkers is the sweep recorded in EXPERIMENTS.md.
var streamBenchWorkers = []int{1, 2, 4, 8}

// streamRows counts the pipeline's unit of work over the benchmark
// dataset: every trace record of every network plus every test row.
func streamRows() int64 {
	rows := 0
	for i := range benchDS.Drives {
		for _, recs := range benchDS.Drives[i].Observed {
			rows += len(recs)
		}
	}
	return int64(rows + len(benchDS.Tests))
}

// BenchmarkStreamingFigures runs the full streamable figure set through
// the sharded pipeline at each worker count. rows/s is the end-to-end
// aggregation throughput; compare the workers=N timings for the scaling
// ratio (on a single-core host they collapse to the same number, since
// the pipeline is CPU-bound).
func BenchmarkStreamingFigures(b *testing.B) {
	benchSetup(b)
	rows := streamRows()
	for _, workers := range streamBenchWorkers {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var figs map[string]*core.Figure
			for i := 0; i < b.N; i++ {
				sa, err := core.StreamAnalyzeContext(context.Background(), &core.DatasetSource{DS: benchDS},
					core.StreamOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				figs = sa.Figures()
			}
			if len(figs) == 0 {
				b.Fatal("no figures")
			}
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
			reportKPIs(b, figs["dataset"], "tests", "distance_km")
		})
	}
}

// heapProbeSource samples live heap after each shard load (loads run
// concurrently in workers, hence the atomic), the same probe the core
// memory-bound test uses, here feeding the JSON report's peak-heap
// column.
type heapProbeSource struct {
	inner core.ShardSource
	peak  atomic.Uint64
}

func (h *heapProbeSource) Info() (core.SourceInfo, error) { return h.inner.Info() }

func (h *heapProbeSource) Plan() ([]core.ShardRef, error) { return h.inner.Plan() }

func (h *heapProbeSource) Load(ref core.ShardRef) (*core.Shard, error) {
	sh, err := h.inner.Load(ref)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for {
		old := h.peak.Load()
		if ms.HeapAlloc <= old || h.peak.CompareAndSwap(old, ms.HeapAlloc) {
			break
		}
	}
	return sh, err
}

// streamBenchRecord is one row of BENCH_streaming.json.
type streamBenchRecord struct {
	Workers       int     `json:"workers"`
	NsPerOp       int64   `json:"ns_per_op"`
	RowsPerSec    float64 `json:"rows_per_sec"`
	SpeedupVsOne  float64 `json:"speedup_vs_workers_1"`
	PeakHeapBytes uint64  `json:"peak_heap_bytes"`
	ShardsDone    int64   `json:"shards_done"`
	RowsDone      int64   `json:"rows_done"`
}

// streamBenchReport is the BENCH_streaming.json document.
type streamBenchReport struct {
	Scale      float64             `json:"scale"`
	Rows       int64               `json:"rows"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	Sweep      []streamBenchRecord `json:"sweep"`
}

// TestStreamingBenchJSON writes the worker sweep as JSON to the path in
// $BENCH_STREAMING_JSON (skipped when unset, so a plain `go test` run
// never benchmarks). `make bench-json` sets it to BENCH_streaming.json.
func TestStreamingBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_STREAMING_JSON")
	if out == "" {
		t.Skip("BENCH_STREAMING_JSON not set")
	}
	benchOnce.Do(func() {
		benchDS = dataset.Generate(dataset.Config{Seed: 42, Scale: benchScale})
		benchAn = core.NewAnalyzer(benchDS)
	})
	rows := streamRows()
	report := streamBenchReport{Scale: benchScale, Rows: rows, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	var baseNs int64
	for _, workers := range streamBenchWorkers {
		reg := obs.NewRegistry()
		probe := &heapProbeSource{inner: &core.DatasetSource{DS: benchDS}}
		start := time.Now()
		sa, err := core.StreamAnalyzeContext(context.Background(), probe, core.StreamOptions{Workers: workers, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(sa.Figures()); n == 0 {
			t.Fatal("no figures")
		}
		ns := time.Since(start).Nanoseconds()
		if workers == streamBenchWorkers[0] {
			baseNs = ns
		}
		report.Sweep = append(report.Sweep, streamBenchRecord{
			Workers:       workers,
			NsPerOp:       ns,
			RowsPerSec:    float64(rows) / (float64(ns) / 1e9),
			SpeedupVsOne:  float64(baseNs) / float64(ns),
			PeakHeapBytes: probe.peak.Load(),
			ShardsDone:    reg.Counter("stream.shards_done").Value(),
			RowsDone:      reg.Counter("stream.rows_done").Value(),
		})
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}
