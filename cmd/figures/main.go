// figures regenerates the paper's evaluation: every figure (Fig. 1-11,
// Eq. 1, dataset summary) plus the paper-vs-measured experiments table.
//
//	figures -scale 0.25                 # all figures as text
//	figures -figure fig9 -csv           # one figure's data as CSV
//	figures -experiments                # only the markdown record
//	figures -out figs                   # also write per-figure CSV artifacts
//
// With -out, each figure's data lands as a CSV file through the
// crash-safe store: atomic writes plus a MANIFEST, so the artifact
// directory is verifiable with satcell-analyze -fsck like the dataset
// itself. -debug-addr serves the live generation/analysis counters as
// JSON (/debug/vars) and pprof while the figures build.
package main

import (
	"flag"
	"fmt"
	"os"

	"satcell"
	"satcell/internal/obs"
	"satcell/internal/store"
)

var logger = obs.NewLogger("figures")

func main() {
	var (
		scale     = flag.Float64("scale", 0.25, "campaign scale (1.0 = the paper's ~3,800 km)")
		seed      = flag.Int64("seed", 42, "world seed")
		only      = flag.String("figure", "", "render a single figure (e.g. fig3a)")
		asCSV     = flag.Bool("csv", false, "emit the figure's data as CSV instead of text")
		expOnly   = flag.Bool("experiments", false, "print only the paper-vs-measured table")
		mpWin     = flag.Int("mp-window", 300, "MPTCP replay window (seconds)")
		mpN       = flag.Int("mp-windows", 3, "MPTCP replay window count")
		workers   = flag.Int("workers", 0, "worker goroutines for generation, the aggregate analysis and the fig10/fig11 replays; 0 = one per core (GOMAXPROCS), negative is rejected; output is identical for any value")
		outDir    = flag.String("out", "", "also write figure data as manifested CSV artifacts into this directory")
		netList   = flag.String("networks", "", "comma-separated network subset to measure (default: every catalog network)")
		scenario  = flag.String("scenario", "", "scenario spec, e.g. networks=RM,MOB;kinds=udp-down;seed=7 (overrides -networks)")
		debugAddr = flag.String("debug-addr", "", "serve /debug/vars (live generation/analysis progress) and /debug/pprof/ on this address")
	)
	flag.Parse()

	sc, err := scenarioFromFlags(*scenario, *netList)
	if err != nil {
		logger.Fatalf("%v", err)
	}

	// Instrumentation is opt-in: a registry only exists when there is a
	// debug endpoint to read it, and it never alters the rendered bytes.
	var reg *obs.Registry
	if *debugAddr != "" {
		reg = obs.NewRegistry()
		srv, err := obs.ServeDebug(*debugAddr, reg, nil, map[string]func() any{
			"seed":  func() any { return *seed },
			"scale": func() any { return *scale },
		})
		if err != nil {
			logger.Fatalf("debug endpoint: %v", err)
		}
		defer srv.Close()
		logger.Infof("debug endpoint on http://%s/debug/vars", srv.Addr())
	}
	w, err := satcell.ValidateWorkers(*workers)
	if err != nil {
		logger.Fatalf("%v", err)
	}
	world := satcell.NewWorld(*seed)
	fmt.Fprintf(os.Stderr, "generating dataset (scale %.2f)...\n", *scale)
	ds := world.GenerateDataset(satcell.DatasetOptions{Scale: *scale, Scenario: sc, Workers: w, Metrics: reg})
	opts := satcell.FigureOptions{MultipathWindowSeconds: *mpWin, MultipathWindows: *mpN, Workers: w, Metrics: reg}

	if *only != "" {
		f := world.Figure(ds, *only, opts)
		if f == nil {
			logger.Fatalf("unknown figure %q", *only)
		}
		if *outDir != "" {
			writeArtifacts(*outDir, *seed, *scale, map[string]*satcell.Figure{*only: f})
		}
		if *asCSV {
			fmt.Print(f.CSV())
		} else {
			fmt.Print(f.Render())
		}
		return
	}

	fmt.Fprintln(os.Stderr, "running analyses (fig10/fig11 replay packet-level transfers)...")
	figs, comp, err := world.Figures(ds, opts)
	if err != nil {
		logger.Fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "analysed with %d workers: %s\n", w, comp)
	if *outDir != "" {
		writeArtifacts(*outDir, *seed, *scale, figs)
	}
	if !*expOnly {
		for _, id := range satcell.FigureIDs(figs) {
			fmt.Print(figs[id].Render())
			fmt.Println()
		}
	}
	fmt.Println("== Paper vs measured ==")
	fmt.Print(satcell.RenderExperiments(satcell.Experiments(figs)))
}

// scenarioFromFlags builds the campaign scenario from -scenario (the
// full grammar) or -networks (just a subset); both empty means the
// default campaign (nil scenario).
func scenarioFromFlags(scenario, netList string) (*satcell.Scenario, error) {
	if scenario != "" {
		return satcell.ParseScenario(nil, scenario)
	}
	if netList == "" {
		return nil, nil
	}
	nets, err := satcell.ParseNetworks(nil, netList)
	if err != nil {
		return nil, err
	}
	return &satcell.Scenario{Networks: nets}, nil
}

// writeArtifacts persists each figure's data as <id>.csv through the
// crash-safe store (atomic writes + trailing MANIFEST).
func writeArtifacts(dir string, seed int64, scale float64, figs map[string]*satcell.Figure) {
	files := make(map[string]string, len(figs))
	for id, f := range figs {
		files[id+".csv"] = f.CSV()
	}
	if err := store.ExportFiguresFS(nil, dir, seed, scale, files); err != nil {
		logger.Fatalf("%v", err)
	}
	logger.Infof("wrote %d figure CSVs -> %s", len(files), dir)
}
