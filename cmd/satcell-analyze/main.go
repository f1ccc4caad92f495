// satcell-analyze computes the paper's summary analyses from a
// tests.csv file (the drivegen export format, which a real field
// campaign would also produce): per-network throughput summaries,
// per-area breakdowns and performance-level coverage shares.
//
// Ingestion is validating: by default malformed or truncated rows are
// skipped and counted into a data-health report (lenient mode) instead
// of aborting the whole load; -strict fails on the first bad row. The
// -fsck mode audits a dataset directory written by drivegen — manifest
// checksums, torn renames, schema, row counts, timestamp monotonicity —
// and exits non-zero on any finding.
//
// The -events mode renders a JSONL event trace exported by a live run
// (mpshell -events-out) as a per-second timeline: relay traffic,
// scheduled fault windows, session markers.
//
// The -stream mode analyses a whole dataset directory (trace shards +
// tests.csv) through the sharded streaming pipeline: shards are scanned
// in MANIFEST order by -workers goroutines, partial aggregates merge in
// a fixed order, and the full figure set prints without the directory
// ever being resident in memory at once. Output is identical for every
// -workers value. The run degrades instead of aborting: shards with
// transient I/O errors are retried, shards that stay bad are
// quarantined, and every run prints a completeness certificate that
// counts the reloads and itemises the quarantines. A SIGINT cancels the
// scan cleanly.
//
// Exit codes for -stream: 0 = complete analysis, 1 = fatal (structural
// error, strict-mode abort, interrupt), 3 = partial analysis with
// quarantined shards (figures rendered, certificate itemises the loss).
//
// The -telemetry mode replays a campaign run directory's TELEMETRY
// journal (the satcell-campaign flight recorder) into a span waterfall,
// incident timeline and per-worker utilization; -telemetry-json emits
// the machine-readable run summary instead. With -stream, -debug-addr
// serves the live shard counters (/debug/vars, /debug/pprof/) while the
// scan runs.
//
//	drivegen -scale 0.1 -out data
//	satcell-analyze -tests data/tests.csv
//	satcell-analyze -stream data -workers 4
//	satcell-analyze -fsck data
//	satcell-analyze -events run.jsonl
//	satcell-analyze -telemetry run
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"satcell/internal/campaign"
	"satcell/internal/core"
	"satcell/internal/dataset"
	"satcell/internal/networks"
	"satcell/internal/obs"
	"satcell/internal/report"
	"satcell/internal/stats"
	"satcell/internal/store"
)

var logger = obs.NewLogger("satcell-analyze")

func main() {
	var (
		path      = flag.String("tests", "data/tests.csv", "tests.csv produced by drivegen (or a field campaign)")
		kind      = flag.String("kind", "udp-down", "test kind to analyse")
		strict    = flag.Bool("strict", false, "abort on the first malformed row instead of skip-and-count")
		fsck      = flag.String("fsck", "", "verify a dataset directory (manifest, checksums, schema, timestamps) and exit")
		events    = flag.String("events", "", "render a JSONL event trace (mpshell -events-out) as a timeline and exit")
		stream    = flag.String("stream", "", "stream a dataset directory (drivegen -out) through the sharded figure pipeline and exit")
		workers   = flag.Int("workers", 0, "worker goroutines for -stream; 0 = one per core (GOMAXPROCS), negative is rejected; figures are identical for any value")
		telemetry = flag.String("telemetry", "", "replay a campaign run directory's TELEMETRY journal as a flight report (waterfall, incidents, worker utilization) and exit")
		telJSON   = flag.Bool("telemetry-json", false, "with -telemetry: emit the machine-readable run summary JSON instead")
		debugAddr = flag.String("debug-addr", "", "with -stream: serve /debug/vars (live shard progress) and /debug/pprof/ on this address")
	)
	flag.Parse()

	if *fsck != "" {
		runFsck(*fsck)
		return
	}
	if *events != "" {
		runEvents(*events)
		return
	}
	if *telemetry != "" {
		os.Exit(runTelemetry(*telemetry, *telJSON))
	}

	mode := store.Lenient
	if *strict {
		mode = store.Strict
	}
	if *stream != "" {
		w, err := core.ValidateWorkers(*workers)
		if err != nil {
			logger.Fatalf("stream: %v", err)
		}
		os.Exit(runStream(*stream, mode, w, *debugAddr))
	}
	rows, rep, err := store.LoadTestsFS(nil, *path, mode)
	if err != nil {
		logger.Fatalf("%v", err)
	}

	// Data-health KPIs first: skipped rows and failed tests frame every
	// number below them.
	outcomes := make(map[string]int)
	for _, r := range rows {
		outcomes[r.Outcome]++
	}
	fmt.Print(core.DataHealthFigure(rep.Files, rep.Rows, rep.Skipped, outcomes).Render())
	for _, re := range rep.Errors {
		fmt.Printf("  skipped %s:%d: %s\n", re.File, re.Line, re.Err)
	}
	fmt.Println()

	// Failed tests measured nothing; keep them out of the distributions
	// (they are accounted for in the outcome KPIs above).
	failed := dataset.OutcomeFailed.String()
	usable := rows[:0:0]
	for _, r := range rows {
		if r.Outcome != failed {
			usable = append(usable, r)
		}
	}
	fmt.Printf("loaded %d tests from %s (%d usable for analysis)\n\n", len(rows), *path, len(usable))

	networks := analyzedNetworks(usable)

	// Per-network summary for the selected kind.
	fmt.Printf("%-5s %6s %8s %8s %8s %8s   (kind=%s)\n",
		"net", "n", "mean", "median", "p75", "loss%", *kind)
	for _, n := range networks {
		var xs, losses []float64
		for _, r := range usable {
			if r.Network == n && r.Kind == *kind {
				xs = append(xs, r.ThroughputMbps)
				losses = append(losses, r.LossRate)
			}
		}
		s := stats.Summarize(xs)
		fmt.Printf("%-5s %6d %8.1f %8.1f %8.1f %8.2f\n",
			n, s.N, s.Mean, s.Median, s.P75, stats.Mean(losses)*100)
	}

	// Per-area means (Fig. 8 style).
	fmt.Println()
	for _, area := range []string{"urban", "suburban", "rural"} {
		bars := make([]report.Bar, 0, len(networks))
		for _, n := range networks {
			var xs []float64
			for _, r := range usable {
				if r.Network == n && r.Kind == *kind && r.Area == area {
					xs = append(xs, r.ThroughputMbps)
				}
			}
			bars = append(bars, report.Bar{Label: n, Value: stats.Mean(xs)})
		}
		fmt.Print(report.BarChart("mean throughput, "+area+" (Mbps)", "", 40, bars))
	}

	// Coverage shares (Fig. 9 style, per-test granularity).
	fmt.Println()
	cols := make([]report.Stacked, 0, len(networks))
	for _, n := range networks {
		counts := make([]int, len(core.PerfLevelNames))
		total := 0
		for _, r := range usable {
			if r.Network == n && r.Kind == *kind {
				total++
				counts[core.PerfLevel(r.ThroughputMbps)]++
			}
		}
		if total == 0 {
			continue
		}
		shares := make([]float64, len(counts))
		for i, c := range counts {
			shares[i] = float64(c) / float64(total)
		}
		cols = append(cols, report.Stacked{Label: n, Shares: shares})
	}
	fmt.Print(report.StackedChart("performance-level coverage", core.PerfLevelNames, 50, cols))
}

// analyzedNetworks derives the report's network column order from the
// data: catalog networks first (registration order), then any ids the
// rows carry that this build's catalog does not know, in first-seen
// order — a field campaign's tests.csv may include networks registered
// only in the binary that generated it.
func analyzedNetworks(rows []store.TestRow) []string {
	seen := make(map[string]bool, 8)
	for _, r := range rows {
		seen[r.Network] = true
	}
	var out []string
	for _, id := range networks.Default().IDs() {
		if seen[string(id)] {
			out = append(out, string(id))
			delete(seen, string(id))
		}
	}
	for _, r := range rows {
		if seen[r.Network] {
			out = append(out, r.Network)
			delete(seen, r.Network)
		}
	}
	return out
}

// runStream analyses a dataset directory with the sharded streaming
// pipeline and prints the full figure set, the scan's data-health line
// and the run's completeness certificate. The returned exit code is 0
// for a complete run, 3 for a partial run with quarantined shards and
// 1 for a fatal error (including an interrupt). A SIGINT cancels the
// supervisor's context — workers drain, nothing leaks.
func runStream(dir string, mode store.Mode, workers int, debugAddr string) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	reg := obs.NewRegistry()
	if debugAddr != "" {
		srv, err := obs.ServeDebug(debugAddr, reg, nil, map[string]func() any{
			"dir":     func() any { return dir },
			"workers": func() any { return workers },
		})
		if err != nil {
			logger.Errorf("debug endpoint: %v", err)
			return 1
		}
		defer srv.Close()
		logger.Infof("debug endpoint on http://%s/debug/vars", srv.Addr())
	}
	src, err := core.OpenStoreSourceFS(nil, dir, mode)
	if err != nil {
		logger.Errorf("stream: %v", err)
		return 1
	}
	sa, err := core.StreamAnalyzeContext(ctx, src, core.StreamOptions{
		Workers: workers,
		Strict:  mode == store.Strict,
		Metrics: reg,
	})
	if err != nil {
		if ctx.Err() != nil {
			logger.Warnf("stream: interrupted, scan cancelled cleanly: %v", err)
		} else {
			logger.Errorf("stream: %v", err)
		}
		return 1
	}
	figs := sa.Figures()
	for _, id := range core.FigureIDs(figs) {
		fmt.Print(figs[id].Render())
		fmt.Println()
	}
	comp := sa.Completeness()
	fmt.Print(core.CompletenessFigure(comp).Render())
	fmt.Println()
	fmt.Printf("streamed %d rows (%d skipped) with %d workers: %s\n",
		src.Report.Rows, src.Report.Skipped, workers, comp)
	for _, re := range src.Report.Errors {
		fmt.Printf("  skipped %s:%d: %s\n", re.File, re.Line, re.Err)
	}
	if !comp.Complete() {
		logger.Warnf("stream: partial analysis: %v", comp.Err())
		return 3
	}
	return 0
}

// runTelemetry replays a campaign run directory's TELEMETRY journal —
// the run's black box — into the flight report (or, with asJSON, the
// machine-readable summary). Read-only: it works on finished, crashed
// and still-running campaigns alike.
func runTelemetry(dir string, asJSON bool) int {
	meta, log, err := campaign.ReadTelemetry(nil, dir)
	if err != nil {
		logger.Errorf("telemetry: %v", err)
		return 1
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(obs.Summarize(log)); err != nil {
			logger.Errorf("telemetry: %v", err)
			return 1
		}
		return 0
	}
	fmt.Printf("campaign %s: seed %d, scale %g\n", dir, meta.Seed, meta.Scale)
	fmt.Print(obs.RenderFlightReport(log))
	return 0
}

// runFsck audits a dataset directory and exits non-zero on findings.
func runFsck(dir string) {
	rep, err := store.FsckFS(nil, dir)
	if err != nil {
		logger.Fatalf("fsck: %v", err)
	}
	fmt.Print(rep)
	if !rep.OK() {
		os.Exit(1)
	}
}

// runEvents renders an exported event trace as a timeline figure.
func runEvents(path string) {
	f, err := os.Open(path)
	if err != nil {
		logger.Fatalf("events: %v", err)
	}
	evs, err := obs.ReadJSONL(f)
	f.Close()
	if err != nil {
		logger.Fatalf("events: %v", err)
	}
	if len(evs) == 0 {
		logger.Fatalf("events: %s holds no events", path)
	}
	fmt.Print(obs.RenderTimeline(evs))
}
