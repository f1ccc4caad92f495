// drivegen generates the synthetic driving dataset: the five-network
// measurement campaign across the five-state drive world. It writes one
// channel-trace CSV per drive per network plus a tests.csv summary —
// the same shape as the artifact the paper released.
//
// Every artifact lands through the crash-safe store (internal/store):
// atomic temp-file + fsync + rename writes, an append-only CHECKPOINT
// journal while the export is in flight, and a trailing MANIFEST
// (schema version, per-file sha256, row counts) that certifies the
// directory complete. Generation streams into the export one drive at
// a time (store.StreamDatasetContext), so the run holds a few drives,
// not the campaign, and a killed run has journalled every drive it
// finished. It leaves a detectable partial campaign; -resume verifies
// the surviving shards and regenerates only the missing or corrupt
// ones, bit-identical to an uninterrupted run.
//
//	drivegen -scale 0.1 -seed 42 -out ./data
//	drivegen -scale 0.1 -seed 42 -out ./data -resume   # after a crash
//	satcell-analyze -fsck ./data                        # audit the result
//
// The campaign is declarative: -networks restricts the measured set
// ("RM,MOB,ATT"), and -scenario takes the full scenario grammar
// ("networks=RM,MOB;kinds=udp-down,udp-ping;seed=7;name=rural"). The
// default is the paper's five-network campaign.
//
// A long full-scale run can be watched live: -debug-addr serves
// /debug/vars (JSON, the registry's one metrics format) with generation
// progress (tests done/total, per-worker throughput, tests/sec, ETA)
// and export progress (shards written/reused), plus pprof for
// profiling the worker pool.
//
// The output directory is guarded by an advisory LOCK file, so two
// writers (say, a drivegen and a drivegen -resume) cannot interleave in
// one directory; a lock whose holder is dead is taken over silently. A
// SIGINT or SIGTERM stops the run at the next durable boundary — every
// finished shard is already journalled — and exits 1 with a -resume
// hint.
package main

import (
	"context"
	"errors"
	"flag"
	"os"
	"os/signal"
	"syscall"

	"satcell"
	"satcell/internal/dataset"
	"satcell/internal/obs"
	"satcell/internal/store"
)

func main() {
	var (
		scale     = flag.Float64("scale", 0.1, "campaign scale (1.0 = the paper's ~3,800 km)")
		seed      = flag.Int64("seed", 42, "world seed")
		out       = flag.String("out", "data", "output directory")
		workers   = flag.Int("workers", 0, "generation worker goroutines (0 = all cores; output is identical for any value)")
		resume    = flag.Bool("resume", false, "resume an interrupted campaign: keep verified shards, regenerate missing/corrupt ones")
		debugAddr = flag.String("debug-addr", "", "serve /debug/vars (generation progress, ETA) and /debug/pprof/ on this address")
		netList   = flag.String("networks", "", "comma-separated network subset to measure (default: every catalog network)")
		scenario  = flag.String("scenario", "", "scenario spec, e.g. networks=RM,MOB;kinds=udp-down;seed=7;name=rural (overrides -networks)")
	)
	flag.Parse()
	logger := obs.NewLogger("drivegen")

	if *scale <= 0 {
		logger.Fatalf("-scale must be positive, got %g", *scale)
	}
	sc, err := scenarioFromFlags(*scenario, *netList)
	if err != nil {
		logger.Fatalf("%v", err)
	}

	var reg *obs.Registry
	if *debugAddr != "" {
		reg = obs.NewRegistry()
		srv, err := obs.ServeDebug(*debugAddr, reg, nil, map[string]func() any{
			"seed":  func() any { return *seed },
			"scale": func() any { return *scale },
			"out":   func() any { return *out },
		})
		if err != nil {
			logger.Fatalf("debug endpoint: %v", err)
		}
		defer srv.Close()
		logger.Infof("debug endpoint on http://%s/debug/vars", srv.Addr())
	}

	// The lock is advisory but load-bearing: two exports interleaving
	// atomic renames and checkpoint appends in one directory would
	// corrupt the journal's claims.
	lock, err := store.AcquireLock(nil, *out, "drivegen")
	if err != nil {
		logger.Fatalf("%v", err)
	}
	defer lock.Release()

	// SIGINT/SIGTERM cancel the context; generation and export observe
	// it at work-item boundaries, so every shard journalled before the
	// signal stays durable and -resume continues from it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Generation streams into the export: each drive's shards are
	// journalled as soon as the drive is finished, so an interrupted run
	// resumes from the last durable shard.
	ds, stats, err := store.StreamDatasetContext(ctx, *out, dataset.Config{
		Seed: *seed, Scale: *scale, Scenario: sc, Workers: *workers, Metrics: reg,
	}, store.ExportOptions{
		Seed:    *seed,
		Scale:   *scale,
		Resume:  *resume,
		Metrics: reg,
	})
	if err != nil {
		lock.Release()
		if errors.Is(err, context.Canceled) {
			logger.Fatalf("interrupted during generation: every finished shard is journalled, rerun with -resume to continue from the last one")
		}
		logger.Fatalf("%v (rerun with -resume to continue from the last durable shard)", err)
	}
	logger.Infof("%d drives, %d tests, %.0f km, %.0f trace-minutes -> %s (%d shards written, %d reused)",
		len(ds.Drives), len(ds.Tests), ds.TotalKm, ds.TotalTestMin, *out,
		stats.Written, stats.Reused)
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
