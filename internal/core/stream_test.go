package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"satcell/internal/channel"
	"satcell/internal/dataset"
	"satcell/internal/obs"
	"satcell/internal/store"
)

// streamWorkerCounts are the pool sizes the equivalence suites sweep.
var streamWorkerCounts = []int{1, 2, 4, 8}

// The streaming suites share one small campaign (and one exported
// artifact directory) across tests.
var (
	streamOnce sync.Once
	streamDS   *dataset.Dataset
	streamDir  string
	streamErr  error
)

func streamFixture(t *testing.T) (*dataset.Dataset, string) {
	t.Helper()
	streamOnce.Do(func() {
		streamDS = dataset.Generate(dataset.Config{Seed: 11, Scale: 0.05})
		dir, err := os.MkdirTemp("", "satcell-stream-*")
		if err != nil {
			streamErr = err
			return
		}
		streamDir = dir
		_, streamErr = store.ExportDatasetContext(context.Background(), dir, streamDS, store.ExportOptions{Seed: 11, Scale: 0.05})
	})
	if streamErr != nil {
		t.Fatal(streamErr)
	}
	return streamDS, streamDir
}

// renderAll renders a figure map to one deterministic string (IDs
// sorted), the byte-level identity the equivalence tests compare.
func renderAll(figs map[string]*Figure) string {
	out := ""
	for _, id := range FigureIDs(figs) {
		out += figs[id].Render() + "\n" + figs[id].CSV() + "\n"
	}
	return out
}

// streamFiguresDigest is the sha256 of renderAll over the twelve
// aggregate figures of streamFixture (seed 11, scale 0.05).
const streamFiguresDigest = "56dffc9372a8e543832c7ae39b826dadff0567b420c9a6798627c908b42e9516"

func renderDigest(figs map[string]*Figure) string {
	sum := sha256.Sum256([]byte(renderAll(figs)))
	return hex.EncodeToString(sum[:])
}

// TestStreamFiguresGolden pins the rendered aggregate figure set: the
// pipeline over the in-memory dataset renders the pinned bytes at every
// worker count.
func TestStreamFiguresGolden(t *testing.T) {
	ds, _ := streamFixture(t)
	for _, workers := range streamWorkerCounts {
		sa, err := StreamAnalyzeContext(context.Background(), &DatasetSource{DS: ds},
			StreamOptions{Workers: workers, Strict: true})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		figs := sa.Figures()
		if len(figs) != len(streamFigureIDs) {
			t.Fatalf("workers=%d: %d figures, want %d", workers, len(figs), len(streamFigureIDs))
		}
		if got := renderDigest(figs); got != streamFiguresDigest {
			t.Errorf("workers=%d: render digest %s, want %s", workers, got, streamFiguresDigest)
		}
	}
}

// TestStreamEmptyDatasetRendersNoNaN renders every aggregate figure of
// an empty dataset: no figure may panic or carry a NaN in its CSV or
// KPIs.
func TestStreamEmptyDatasetRendersNoNaN(t *testing.T) {
	sa, err := StreamAnalyzeContext(context.Background(), &DatasetSource{DS: &dataset.Dataset{}}, StreamOptions{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	figs := sa.Figures()
	for _, id := range FigureIDs(figs) {
		f := figs[id]
		if csv := f.CSV(); strings.Contains(csv, "NaN") {
			t.Errorf("%s CSV contains NaN:\n%s", id, csv)
		}
		for k, v := range f.KPIs {
			if math.IsNaN(v) {
				t.Errorf("%s KPI %s is NaN", id, k)
			}
		}
	}
}

// TestStreamingStoreDeterministicAcrossWorkers locks the directory-scan
// path: every worker count renders byte-identical output (the store
// path is CSV-rounded, so it is compared against itself, not against
// the in-memory analyzer).
func TestStreamingStoreDeterministicAcrossWorkers(t *testing.T) {
	_, dir := streamFixture(t)
	var want string
	for _, workers := range streamWorkerCounts {
		src, err := OpenStoreSourceFS(nil, dir, store.Strict)
		if err != nil {
			t.Fatal(err)
		}
		sa, err := StreamAnalyzeContext(context.Background(), src, StreamOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := renderAll(sa.Figures())
		if workers == streamWorkerCounts[0] {
			want = got
			continue
		}
		if got != want {
			t.Errorf("workers=%d renders differently from workers=%d", workers, streamWorkerCounts[0])
		}
	}
}

// TestStreamingStoreCloseToAnalyzer sanity-checks that the store path
// measures the same campaign: headline KPIs agree with the pipeline over
// the in-memory dataset within CSV-rounding slack.
func TestStreamingStoreCloseToAnalyzer(t *testing.T) {
	ds, dir := streamFixture(t)
	src, err := OpenStoreSourceFS(nil, dir, store.Strict)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := StreamAnalyzeContext(context.Background(), src, StreamOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	memSA, err := StreamAnalyzeContext(context.Background(), &DatasetSource{DS: ds}, StreamOptions{Workers: 2, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	figs, mem := sa.Figures(), memSA.Figures()
	for _, probe := range []struct {
		id, kpi string
		tol     float64
	}{
		{"fig3a", "mob_udp_mean_mbps", 0.05},
		{"fig4", "median_ms_RM", 0.05},
		{"fig8", "share_rural", 0.01},
		{"dataset", "tests", 0},
		{"dataset", "distance_km", 1e-9},
	} {
		got, want := figs[probe.id].KPI(probe.kpi), mem[probe.id].KPI(probe.kpi)
		if diff := absFloat(got - want); diff > probe.tol {
			t.Errorf("%s %s: store %.6f vs memory %.6f (|Δ|=%.6f > %.6f)",
				probe.id, probe.kpi, got, want, diff, probe.tol)
		}
	}
	failed := 0
	for i := range ds.Tests {
		if ds.Tests[i].Outcome == dataset.OutcomeFailed {
			failed++
		}
	}
	if got, want := sa.p.outcomes[dataset.OutcomeFailed], failed; got != want {
		t.Errorf("store path reconstructed %d failed tests, dataset has %d", got, want)
	}
}

// TestStreamMetrics checks the pipeline's observability: shard/row
// counters and per-worker attribution.
func TestStreamMetrics(t *testing.T) {
	ds, _ := streamFixture(t)
	reg := obs.NewRegistry()
	_, err := StreamAnalyzeContext(context.Background(), &DatasetSource{DS: ds}, StreamOptions{Workers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reg.Counter("stream.shards_done").Value(), int64(len(ds.Drives)); got != want {
		t.Errorf("shards_done = %d, want %d", got, want)
	}
	if got := reg.Gauge("stream.shards_total").Value(); got != float64(len(ds.Drives)) {
		t.Errorf("shards_total = %g, want %d", got, len(ds.Drives))
	}
	if got := reg.Gauge("stream.progress").Value(); got != 1 {
		t.Errorf("progress = %g, want 1", got)
	}
	var perWorker int64
	for w := 0; w < 2; w++ {
		perWorker += reg.Counter(fmt.Sprintf("stream.worker.%02d.shards", w)).Value()
	}
	if perWorker != int64(len(ds.Drives)) {
		t.Errorf("per-worker shard counters sum to %d, want %d", perWorker, len(ds.Drives))
	}
	if reg.Counter("stream.rows_done").Value() == 0 {
		t.Error("rows_done stayed zero")
	}
}

// TestStreamingTenXCorpusBoundedMemory is the scale gate: a synthetic
// corpus ~10× the fixture campaign streams through the pipeline with
// peak heap growth far below the corpus's in-memory footprint.
func TestStreamingTenXCorpusBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("10x corpus test skipped in -short mode")
	}
	ds, _ := streamFixture(t)
	const copies = 10
	big := tileDataset(ds, copies)
	dir := t.TempDir()
	if _, err := store.ExportDatasetContext(context.Background(), dir, big, store.ExportOptions{Seed: 11, Scale: 0.05}); err != nil {
		t.Fatal(err)
	}
	// Estimate the corpus's in-memory record footprint before releasing
	// it: this is (a lower bound on) what the non-streaming path holds.
	var totalRecords int
	for i := range big.Drives {
		for _, recs := range big.Drives[i].Observed {
			totalRecords += len(recs)
		}
	}
	corpusBytes := uint64(totalRecords) * uint64(unsafe.Sizeof(channel.Record{}))
	big = nil // the streaming scan must not need it

	src, err := OpenStoreSourceFS(nil, dir, store.Strict)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	sampled := &memSamplingSource{inner: src}
	sa, err := StreamAnalyzeContext(context.Background(), sampled, StreamOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	figs := sa.Figures()
	if got := figs["dataset"].KPI("drives"); got != float64(copies*len(ds.Drives)) {
		t.Fatalf("10x corpus reports %g drives, want %d", got, copies*len(ds.Drives))
	}
	var growth uint64
	if peak := sampled.peak.Load(); peak > base.HeapAlloc {
		growth = peak - base.HeapAlloc
	}
	// The bound: half the corpus footprint. A non-streaming load holds
	// every record (plus tests and series) at once; the pipeline holds
	// a few shards plus the sketches.
	if growth > corpusBytes/2 {
		t.Errorf("peak heap growth %d bytes exceeds half the %d-byte corpus footprint (not streaming?)",
			growth, corpusBytes)
	}
	t.Logf("10x corpus: %d records (%d bytes in memory), peak heap growth %d bytes",
		totalRecords, corpusBytes, growth)
}

// memSamplingSource decorates a ShardSource with a HeapAlloc probe
// after each shard load. Loads run concurrently in workers, so the
// peak is tracked atomically.
type memSamplingSource struct {
	inner ShardSource
	peak  atomic.Uint64
}

func (m *memSamplingSource) Info() (SourceInfo, error) { return m.inner.Info() }

func (m *memSamplingSource) Plan() ([]ShardRef, error) { return m.inner.Plan() }

func (m *memSamplingSource) Load(ref ShardRef) (*Shard, error) {
	sh, err := m.inner.Load(ref)
	// Collect before reading so the probe measures live heap
	// (shards in flight + sketches), not GC-lag garbage.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for {
		old := m.peak.Load()
		if ms.HeapAlloc <= old || m.peak.CompareAndSwap(old, ms.HeapAlloc) {
			break
		}
	}
	return sh, err
}

// tileDataset builds a campaign ~n times the input by replicating its
// drives and tests with fresh indices. Records are shared (the export
// re-serializes them per shard), tests are re-identified so every copy
// evaluates as a distinct drive.
func tileDataset(ds *dataset.Dataset, n int) *dataset.Dataset {
	out := &dataset.Dataset{
		Seed: ds.Seed, Networks: ds.Networks,
		TotalKm: ds.TotalKm * float64(n), TotalTestMin: ds.TotalTestMin * float64(n),
	}
	for c := 0; c < n; c++ {
		out.Drives = append(out.Drives, ds.Drives...)
		for i := range ds.Tests {
			t := ds.Tests[i]
			t.ID = c*len(ds.Tests) + t.ID
			t.Drive = c*len(ds.Drives) + t.Drive
			out.Tests = append(out.Tests, t)
		}
	}
	return out
}

// TestFig9ColumnsDefaultScenario pins the paper's eight-column layout.
func TestFig9ColumnsDefaultScenario(t *testing.T) {
	cols := fig9Columns(
		[]channel.NetworkID{channel.ATT, channel.TMobile, channel.Verizon},
		[]channel.NetworkID{channel.StarlinkRoam, channel.StarlinkMobility})
	want := []string{"ATT", "TM", "VZ", "BestCL", "RM", "RM+CL", "MOB", "MOB+CL"}
	if len(cols) != len(want) {
		t.Fatalf("%d columns, want %d", len(cols), len(want))
	}
	for i, c := range cols {
		if c.label != want[i] {
			t.Errorf("column %d is %q, want %q", i, c.label, want[i])
		}
	}
}
