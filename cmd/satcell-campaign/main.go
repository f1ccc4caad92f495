// satcell-campaign runs the whole measurement campaign end to end —
// plan, generate+export, fsck-verify, streaming-analyze, render — as a
// crash-only supervised pipeline (internal/campaign). Every completed
// stage lands in the run directory's append-only CAMPAIGN journal, so
// the process can be killed at any instant and rerun with -resume to
// continue from the last durable stage, converging on artifacts and
// figures byte-identical to an uninterrupted run.
//
//	satcell-campaign -out run -scale 0.1
//	satcell-campaign -out run -scale 0.1 -resume    # after any crash
//
// Supervision: a watchdog fed by the live progress counters (shards
// exported, rows scanned) cancels a stage whose progress stops for
// -stall-window and retries it with capped jittered backoff
// (-stage-retries attempts). Failures degrade instead of aborting:
// generation quarantines panicking drives, analysis quarantines poison
// shards, and the final certificate itemises both ledgers.
//
// Exit codes follow satcell-analyze -stream: 0 = complete campaign,
// 1 = fatal error or interrupt (the journal is durable; rerun with
// -resume), 3 = partial campaign (figures rendered, certificate
// itemises the quarantined loss).
//
// A SIGINT or SIGTERM checkpoints-then-exits: the current stage is
// cancelled at the next work-item boundary and everything journalled
// stays durable.
//
// For fault drills, -iofaults injects scripted disk faults into every
// stage ("write-err:drive001*:x2", "write-stall:tests.csv:+500ms"; see
// internal/faults).
//
// Every run also keeps a black box, its one timeline: the TELEMETRY
// journal (span tree with stage transitions, stalls, shard retries and
// their causes, quarantines; periodic metrics snapshots; post-mortem
// pointers), appended fsync-durably beside CAMPAIGN. `satcell-campaign -out run -report` replays
// it into a span waterfall, incident timeline and per-worker
// utilization — across every resume of the run — and -report-json
// emits the machine-readable summary. Stalls and quarantines leave
// automatic post-mortems under run/postmortem/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"satcell"
	"satcell/internal/campaign"
	"satcell/internal/faults"
	"satcell/internal/netem"
	"satcell/internal/obs"
	"satcell/internal/store"
	"satcell/internal/vsession"
)

var logger = obs.NewLogger("satcell-campaign")

func main() {
	os.Exit(run())
}

func run() int {
	var (
		out          = flag.String("out", "run", "run directory (journal + lock at its root, dataset in data/, figure CSVs in figures/)")
		scale        = flag.Float64("scale", 0.1, "campaign scale (1.0 = the paper's ~3,800 km)")
		seed         = flag.Int64("seed", 42, "world seed")
		workers      = flag.Int("workers", 0, "worker goroutines for generation and analysis (0 = one per core; artifacts are identical for any value)")
		resume       = flag.Bool("resume", false, "resume an interrupted campaign from its CAMPAIGN journal")
		netList      = flag.String("networks", "", "comma-separated network subset to measure (default: every catalog network)")
		scenario     = flag.String("scenario", "", "scenario spec, e.g. networks=RM,MOB;kinds=udp-down;seed=7;name=rural (overrides -networks)")
		stallWindow  = flag.Duration("stall-window", 30*time.Second, "cancel a stage whose progress counters stop moving for this long")
		stageRetries = flag.Int("stage-retries", 2, "retries per failed or stalled stage (negative = none)")
		sampleEvery  = flag.Duration("sample-interval", time.Second, "flight-recorder metrics sampling period for the TELEMETRY journal (negative disables)")
		report       = flag.Bool("report", false, "replay the run directory's TELEMETRY journal as a flight report (waterfall, incidents, worker utilization) and exit")
		reportJSON   = flag.Bool("report-json", false, "like -report but emit the machine-readable run summary JSON")
		debugAddr    = flag.String("debug-addr", "", "serve /debug/vars (stage + shard progress), /debug/health (stage + watchdog age) and /debug/pprof/ on this address")
		ioFaults     = flag.String("iofaults", "", "comma-separated scripted disk-fault rules for fault drills, e.g. write-stall:drive001*:x2:+500ms")
		ioFaultSeed  = flag.Int64("iofault-seed", 1, "seed of the -iofaults probability decisions")
		vsess        = flag.Bool("vsession", false, "append the vsession stage: replay a deterministic virtual transport session into figures/vsession.csv")
		vsessRate    = flag.Float64("vsession-rate", 20, "virtual session link capacity in Mbps")
		vsessDelay   = flag.Duration("vsession-delay", 25*time.Millisecond, "virtual session one-way delay")
		vsessLoss    = flag.Float64("vsession-loss", 0.001, "virtual session datagram loss probability")
		vsessDur     = flag.Duration("vsession-duration", 30*time.Second, "virtual session length (virtual time)")
		vsessFaults  = flag.String("vsession-faults", "", "fault spec applied to the virtual session's path (faults.ParseSpec grammar)")
	)
	flag.Parse()

	if *report || *reportJSON {
		return renderReport(*out, *reportJSON)
	}

	sc, err := scenarioFromFlags(*scenario, *netList)
	if err != nil {
		logger.Errorf("%v", err)
		return 1
	}

	reg := obs.NewRegistry()
	status := &campaign.Status{}
	if *debugAddr != "" {
		srv, err := obs.ServeDebug(*debugAddr, reg, nil, map[string]func() any{
			"seed":     func() any { return *seed },
			"scale":    func() any { return *scale },
			"out":      func() any { return *out },
			"campaign": func() any { return status.Snapshot() },
		})
		if err != nil {
			logger.Errorf("debug endpoint: %v", err)
			return 1
		}
		defer srv.Close()
		logger.Infof("debug endpoint on http://%s/debug/vars", srv.Addr())
	}

	var fsys store.FS
	if *ioFaults != "" {
		sched, err := faults.ParseIOSpec(*ioFaults, *ioFaultSeed)
		if err != nil {
			logger.Errorf("iofaults: %v", err)
			return 1
		}
		ffs := store.NewFaultFS(nil, sched)
		fsys = ffs
		logger.Infof("injecting disk faults (schedule digest %s)", sched.Digest())
		defer func() { logger.Infof("fault stats: %v", ffs.Stats()) }()
	}

	// The vsession knob replays a deterministic virtual transport
	// session (sim stack, virtual time) after render; its seed follows
	// the campaign's effective seed so the whole run replays from one
	// number.
	var vcfg *vsession.Config
	if *vsess {
		spec := vsession.PathSpec{
			Name: "primary",
			Down: netem.ConstantShape(*vsessRate, *vsessDelay, *vsessLoss),
			Up:   netem.ConstantShape(*vsessRate, *vsessDelay, *vsessLoss),
		}
		if *vsessFaults != "" {
			fs, err := faults.ParseSpec(*vsessFaults, *seed)
			if err != nil {
				logger.Errorf("vsession-faults: %v", err)
				return 1
			}
			spec.Faults = &fs
		}
		vcfg = &vsession.Config{Paths: []vsession.PathSpec{spec}, Duration: *vsessDur}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := campaign.Run(ctx, campaign.Config{
		Dir: *out, Seed: *seed, Scale: *scale, Scenario: sc,
		Workers: *workers, Resume: *resume,
		StallWindow: *stallWindow, StageRetries: *stageRetries,
		SampleInterval: *sampleEvery, Status: status,
		Metrics: reg, FS: fsys,
		Log: logger, VSession: vcfg,
	})
	if err != nil {
		if ctx.Err() != nil {
			logger.Warnf("interrupted: completed stages are journalled; rerun with -resume to continue: %v", err)
		} else {
			logger.Errorf("%v (rerun with -resume to continue from the last journalled stage)", err)
		}
		return 1
	}

	for _, id := range satcell.FigureIDs(res.Figures) {
		fmt.Print(res.Figures[id].Render())
		fmt.Println()
	}
	fmt.Print(res.Certificate())
	logger.Infof("campaign %s: %d shards written, %d reused, %d stage retries, %d stalls -> data in %s, figures in %s",
		res.Completeness.String(), res.Written, res.Reused, res.Retries, res.Stalls, res.DataDir, res.FiguresDir)
	if code := res.ExitCode(); code != 0 {
		logger.Warnf("partial campaign: %v", res.Completeness.Err())
		return code
	}
	return 0
}

// renderReport replays the run directory's TELEMETRY journal — the
// run's black box — without touching the lock or the journals' write
// paths, so it works on a finished run, a crashed one, or one still in
// flight. asJSON selects the machine-readable summary.
func renderReport(dir string, asJSON bool) int {
	meta, log, err := campaign.ReadTelemetry(nil, dir)
	if err != nil {
		logger.Errorf("%v", err)
		return 1
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(obs.Summarize(log)); err != nil {
			logger.Errorf("%v", err)
			return 1
		}
		return 0
	}
	fmt.Printf("campaign %s: seed %d, scale %g\n", dir, meta.Seed, meta.Scale)
	fmt.Print(obs.RenderFlightReport(log))
	return 0
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
