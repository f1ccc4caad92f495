package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"satcell/internal/core"
	"satcell/internal/dataset"
	"satcell/internal/faults"
	"satcell/internal/obs"
	"satcell/internal/store"
	"satcell/internal/vsession"
)

// stageRecord is one journal line: a stage that completed durably,
// with everything a resume must adopt instead of recompute.
type stageRecord struct {
	Stage    Stage `json:"stage"`
	Attempts int   `json:"attempts"`
	Stalls   int   `json:"stalls,omitempty"`
	// Generate-stage payload.
	Quarantined []dataset.DriveFailure `json:"quarantined,omitempty"`
	Written     int                    `json:"written,omitempty"`
	Reused      int                    `json:"reused,omitempty"`
	// Analyze-stage payload.
	Completeness *core.Completeness `json:"completeness,omitempty"`
	// VSession-stage payload: the per-second series digest.
	VDigest string `json:"vdigest,omitempty"`
}

// runner is the in-flight state of one supervised run.
type runner struct {
	cfg     Config
	workers int
	journal *store.Journal
	stages  []Stage
	done    map[Stage]*stageRecord
	figs    map[string]*core.Figure
	result  *Result

	// rec is the flight recorder appending to the TELEMETRY journal
	// (nil-safe: a run without telemetry records nothing); camp is its
	// root span, span the currently executing attempt span.
	rec  *obs.FlightRecorder
	camp *obs.Span
	span *obs.Span
	// pmGuard bounds post-mortem captures to one per stage attempt; it
	// is reset at each attempt start and raced by the watchdog and the
	// analyzer's quarantine callback. curStage/curAttempt name the
	// attempt now executing (written between attempts, read by callbacks
	// the attempt spawned).
	pmGuard    atomic.Bool
	curStage   Stage
	curAttempt int
}

// Run executes (or resumes) the campaign pipeline under supervision.
// It returns a Result for complete and degraded-but-finished runs —
// Result.ExitCode distinguishes them — and an error only for fatal
// conditions: a held lock, a journal mismatch, a cancelled context, or
// a stage that failed beyond its retry budget. On cancellation every
// durably completed stage is already journalled, so rerunning with
// Resume continues where the run stopped.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("campaign: Config.Dir is required")
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 0.1
	}
	if cfg.StallWindow <= 0 {
		cfg.StallWindow = 30 * time.Second
	}
	if cfg.StageRetries == 0 {
		cfg.StageRetries = 2
	} else if cfg.StageRetries < 0 {
		cfg.StageRetries = 0
	}
	if cfg.SampleInterval == 0 {
		cfg.SampleInterval = time.Second
	} else if cfg.SampleInterval < 0 {
		cfg.SampleInterval = 0 // sampler disabled
	}
	if cfg.Metrics == nil {
		// The watchdog reads counters; supervision must work unobserved.
		cfg.Metrics = obs.NewRegistry()
	}
	workers, err := core.ValidateWorkers(cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if cfg.Scenario != nil {
		if err := cfg.Scenario.Validate(); err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
	}

	lock, err := store.AcquireLock(cfg.FS, cfg.Dir, Tool)
	if err != nil {
		return nil, err
	}
	defer lock.Release()

	meta := store.JournalMeta{Schema: store.SchemaVersion, Tool: Tool, Seed: cfg.Scenario.EffectiveSeed(cfg.Seed), Scale: cfg.Scale}
	journal, entries, err := store.OpenJournal(cfg.FS, filepath.Join(cfg.Dir, JournalName), meta, cfg.Resume)
	if err != nil {
		return nil, err
	}
	defer journal.Close()

	// The TELEMETRY journal is the run's black box: span tree, sampler
	// snapshots and post-mortem pointers. On resume it is replayed only
	// to count prior process runs, so the report renderer can stitch
	// every attempt into one timeline; the records themselves stay on
	// disk untouched.
	telemetry, telEntries, err := store.OpenJournal(cfg.FS, filepath.Join(cfg.Dir, TelemetryName), meta, cfg.Resume)
	if err != nil {
		return nil, err
	}
	// Close fsyncs the unit and shard span records appended unsynced
	// since the last durable one.
	defer func() {
		if err := telemetry.Close(); err != nil {
			cfg.Log.Warnf("telemetry: %v", err)
		}
	}()
	runNo := 1
	for _, raw := range telEntries {
		var t struct {
			T string `json:"t"`
		}
		if json.Unmarshal(raw, &t) == nil && t.T == obs.RecRun {
			runNo++
		}
	}

	// The stage list is per run: the vsession stage joins the pipeline
	// only when configured, so ordinary runs keep the stable Stages
	// contract.
	stages := Stages
	if cfg.VSession != nil {
		stages = append(append([]Stage{}, Stages...), StageVSession)
	}

	r := &runner{
		cfg: cfg, workers: workers, journal: journal,
		stages: stages,
		done:   make(map[Stage]*stageRecord),
		result: &Result{
			Dir:        cfg.Dir,
			DataDir:    filepath.Join(cfg.Dir, "data"),
			FiguresDir: filepath.Join(cfg.Dir, "figures"),
		},
	}
	for _, raw := range entries {
		var rec stageRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("campaign: parse %s entry: %w", JournalName, err)
		}
		// Last record per stage wins: a healed stage supersedes its
		// earlier journal line.
		r.done[rec.Stage] = &rec
	}

	r.rec = obs.NewFlightRecorder(telemetry, runNo)
	// Telemetry must not fail the run, but a journal that lost a record
	// no longer replays into a complete account of it; say so once,
	// after the sampler's last append.
	defer func() {
		if err := r.rec.Err(); err != nil {
			cfg.Log.Warnf("telemetry: %s is incomplete: %v", filepath.Join(cfg.Dir, TelemetryName), err)
		}
	}()
	sampler := obs.StartSampler(r.rec, cfg.Metrics, cfg.SampleInterval)
	defer sampler.Stop()
	r.camp = r.rec.Begin(obs.SpanCampaign, Tool)

	if err := r.runPipeline(ctx); err != nil {
		if ctx.Err() != nil {
			r.camp.End(obs.SpanCancelled, ctx.Err().Error())
		} else {
			r.camp.End(obs.SpanFailed, err.Error())
		}
		return nil, err
	}
	r.camp.End(obs.SpanOK, r.result.Completeness.String())
	return r.result, nil
}

// ReadTelemetry replays a run directory's TELEMETRY journal read-only
// (torn tail dropped) into the flight log the report renderers consume.
// meta is the journal's identity line; log covers every process run the
// directory accumulated.
func ReadTelemetry(fsys store.FS, dir string) (*store.JournalMeta, *obs.FlightLog, error) {
	meta, entries, err := store.ReplayJournal(fsys, filepath.Join(dir, TelemetryName))
	if err != nil {
		return nil, nil, err
	}
	if meta == nil {
		return nil, nil, fmt.Errorf("campaign: no %s journal in %s (not a campaign run directory?)", TelemetryName, dir)
	}
	log, err := obs.ReplayTelemetry(entries)
	if err != nil {
		return nil, nil, err
	}
	return meta, log, nil
}

// runPipeline walks the stages in order, skipping journalled ones and
// healing a failed verify by re-entering generate (the export resume
// path regenerates exactly the corrupt shards).
func (r *runner) runPipeline(ctx context.Context) error {
	heals := 0
	for i := 0; i < len(r.stages); i++ {
		st := r.stages[i]
		if rec, ok := r.done[st]; ok {
			r.adopt(rec)
			r.cfg.Log.Infof("stage %s: journalled as complete, skipping", st)
			continue
		}
		rec, err := r.runStage(ctx, i, st)
		if err != nil {
			if st == StageVerify && heals <= r.cfg.StageRetries && ctx.Err() == nil {
				// A dirty dataset directory is not fatal while generate can
				// still heal it: drop generate's in-memory done mark and
				// re-enter it. Its fresh journal line supersedes the old one
				// on any future replay.
				heals++
				r.result.Retries++
				r.cfg.Metrics.Counter("campaign.stage_retries").Inc()
				r.cfg.Log.Warnf("stage %s: %v; re-entering %s to heal (%d/%d)",
					st, err, StageGenerate, heals, r.cfg.StageRetries+1)
				delete(r.done, StageGenerate)
				for j, s := range r.stages {
					if s == StageGenerate {
						i = j - 1
						break
					}
				}
				continue
			}
			return err
		}
		r.adopt(rec)
		if err := r.journal.Append(rec); err != nil {
			return err
		}
		r.done[st] = rec
	}
	r.result.Figures = r.figs
	return nil
}

// adopt folds a completed (or replayed) stage record into the result.
func (r *runner) adopt(rec *stageRecord) {
	r.result.Stalls += rec.Stalls
	if rec.Attempts > 1 {
		r.result.Retries += rec.Attempts - 1
	}
	switch rec.Stage {
	case StageGenerate:
		r.result.Completeness.Gen = rec.Quarantined
		r.result.Written, r.result.Reused = rec.Written, rec.Reused
	case StageAnalyze:
		r.result.Completeness.Stream = rec.Completeness
	case StageVSession:
		r.result.VDigest = rec.VDigest
	}
}

// stageRetryBackoff is the base of the capped-jittered wait before a
// stage retry (faults.BackoffDelay).
const stageRetryBackoff = 50 * time.Millisecond

// runStage runs one stage under the watchdog with the stage retry
// budget. A cancelled parent context aborts immediately — that is the
// checkpoint-then-exit path, not a stage failure.
func (r *runner) runStage(ctx context.Context, idx int, st Stage) (*stageRecord, error) {
	rec := &stageRecord{Stage: st}
	maxAttempts := r.cfg.StageRetries + 1
	stSpan := r.camp.Child(obs.SpanStage, string(st))
	var lastErr error
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		rec.Attempts = attempt
		if err := ctx.Err(); err != nil {
			stSpan.End(obs.SpanCancelled, err.Error())
			return nil, err
		}
		if r.cfg.beforeStage != nil {
			if err := r.cfg.beforeStage(st); err != nil {
				stSpan.End(obs.SpanCancelled, err.Error())
				return nil, err
			}
		}
		r.cfg.Status.setStage(string(st), attempt)
		r.curStage, r.curAttempt = st, attempt
		r.pmGuard.Store(false)
		r.span = stSpan.Child(obs.SpanAttempt, fmt.Sprintf("%s#%d", st, attempt))
		stageCtx, cancel := context.WithCancel(ctx)
		var dog *watchdog
		if progress := r.progressFunc(st); progress != nil {
			// The watchdog's trip path captures a post-mortem *before*
			// cancelling: once the stage unwinds, the wedged goroutines and
			// the counters they starved are gone.
			attempt := attempt
			trip := func() {
				r.capturePostmortem(st, attempt, fmt.Sprintf("watchdog: no counter progress for %v", r.cfg.StallWindow))
				cancel()
			}
			dog = startWatchdog(trip, progress, r.cfg.StallWindow, r.cfg.Status)
		}
		r.cfg.Log.Infof("stage %s: attempt %d/%d", st, attempt, maxAttempts)
		err := r.execStage(stageCtx, st, rec)
		stalled := false
		if dog != nil {
			stalled = dog.stop()
		}
		cancel()
		if err == nil {
			r.span.End(obs.SpanOK, "")
			if attempt > 1 {
				stSpan.End(obs.SpanRetried, fmt.Sprintf("ok on attempt %d/%d", attempt, maxAttempts))
			} else {
				stSpan.End(obs.SpanOK, "")
			}
			return rec, nil
		}
		if ctx.Err() != nil {
			// The run was cancelled from outside (SIGINT/SIGTERM): every
			// completed stage is journalled, so exit instead of retrying.
			r.span.End(obs.SpanCancelled, ctx.Err().Error())
			stSpan.End(obs.SpanCancelled, ctx.Err().Error())
			return nil, ctx.Err()
		}
		if stalled {
			rec.Stalls++
			r.cfg.Metrics.Counter("campaign.stage_stalls").Inc()
			err = fmt.Errorf("campaign: stage %s stalled (no counter progress for %v): %w",
				st, r.cfg.StallWindow, err)
			r.span.End(obs.SpanStalled, err.Error())
		} else {
			r.span.End(obs.SpanFailed, err.Error())
		}
		lastErr = err
		if attempt == maxAttempts {
			break
		}
		r.cfg.Metrics.Counter("campaign.stage_retries").Inc()
		delay := faults.BackoffDelay(stageRetryBackoff, idx, attempt)
		r.cfg.Log.Warnf("stage %s: attempt %d failed (%v), retrying in %v", st, attempt, err, delay)
		select {
		case <-ctx.Done():
			stSpan.End(obs.SpanCancelled, ctx.Err().Error())
			return nil, ctx.Err()
		case <-time.After(delay):
		}
	}
	stSpan.End(obs.SpanFailed, fmt.Sprintf("%d attempt(s) exhausted", maxAttempts))
	return nil, fmt.Errorf("campaign: stage %s failed after %d attempt(s): %w", st, maxAttempts, lastErr)
}

// progressFunc returns the watchdog's progress reading for stages with
// live counters; nil exempts the stage from stall supervision (plan,
// verify and render have no counters to feed a watchdog, and are short).
func (r *runner) progressFunc(st Stage) func() int64 {
	reg := r.cfg.Metrics
	switch st {
	case StageGenerate:
		units := reg.Counter("dataset.drive_units_done")
		samples := reg.Counter("dataset.samples_done")
		tests := reg.Counter("dataset.tests_done")
		written := reg.Counter("store.shards_written")
		reused := reg.Counter("store.shards_reused")
		retries := reg.Counter("dataset.unit_retries")
		return func() int64 {
			return units.Value() + samples.Value() + tests.Value() +
				written.Value() + reused.Value() + retries.Value()
		}
	case StageAnalyze:
		shards := reg.Counter("stream.shards_done")
		rows := reg.Counter("stream.rows_done")
		return func() int64 { return shards.Value() + rows.Value() }
	default:
		return nil
	}
}

// execStage dispatches one stage attempt.
func (r *runner) execStage(ctx context.Context, st Stage, rec *stageRecord) error {
	switch st {
	case StagePlan:
		return r.execPlan()
	case StageGenerate:
		return r.execGenerate(ctx, rec)
	case StageVerify:
		return r.execVerify()
	case StageAnalyze:
		return r.execAnalyze(ctx, rec)
	case StageRender:
		return r.execRender(ctx)
	case StageVSession:
		return r.execVSession(rec)
	default:
		return fmt.Errorf("campaign: unknown stage %q", st)
	}
}

// execPlan lays out the run directory. The config was validated before
// the journal opened; planning is deliberately cheap so the first
// journal line lands within milliseconds of startup.
func (r *runner) execPlan() error {
	fsys := r.cfg.FS
	if fsys == nil {
		fsys = store.OS()
	}
	if err := fsys.MkdirAll(r.result.DataDir, 0o755); err != nil {
		return err
	}
	return fsys.MkdirAll(r.result.FiguresDir, 0o755)
}

// execGenerate regenerates the dataset (deterministic, so a retry or
// resume recomputes the identical campaign) and streams it to disk
// drive by drive with Resume always on: the export checkpoint makes
// this stage internally resumable at shard granularity, and the stage
// never holds more than a few drives.
func (r *runner) execGenerate(ctx context.Context, rec *stageRecord) error {
	ds, stats, err := store.StreamDatasetContext(ctx, r.result.DataDir, dataset.Config{
		Seed: r.cfg.Seed, Scale: r.cfg.Scale, Scenario: r.cfg.Scenario,
		Workers: r.workers, Metrics: r.cfg.Metrics,
		Degrade: true, BeforeUnit: r.cfg.beforeUnit,
		Spans: r.span,
	}, store.ExportOptions{
		Seed: r.cfg.Scenario.EffectiveSeed(r.cfg.Seed), Scale: r.cfg.Scale, Resume: true,
		BeforeFile: r.cfg.beforeFile, Metrics: r.cfg.Metrics, FS: r.cfg.FS,
	})
	if err != nil {
		return err
	}
	rec.Quarantined = ds.Quarantined
	rec.Written, rec.Reused = stats.Written, stats.Reused
	return nil
}

// execVerify audits the exported directory; any finding is a stage
// error, which the pipeline heals by re-entering generate.
func (r *runner) execVerify() error {
	rep, err := store.FsckFS(r.cfg.FS, r.result.DataDir)
	if err != nil {
		return err
	}
	if !rep.OK() {
		return fmt.Errorf("campaign: verify: %s", strings.TrimSpace(rep.String()))
	}
	r.cfg.Log.Infof("stage %s: %d files, %d rows verified", StageVerify, rep.FilesChecked, rep.RowsChecked)
	return nil
}

// execAnalyze streams the verified directory through the sharded
// figure pipeline (lenient: quarantines degrade the certificate, they
// do not abort the campaign).
func (r *runner) execAnalyze(ctx context.Context, rec *stageRecord) error {
	sa, err := r.analyze(ctx)
	if err != nil {
		return err
	}
	r.figs = sa.Figures()
	rec.Completeness = sa.Completeness()
	return nil
}

// analyze runs the streaming analysis; the render stage reuses it when
// a resume skipped past analyze with no figures in memory.
func (r *runner) analyze(ctx context.Context) (*core.StreamAnalysis, error) {
	src, err := core.OpenStoreSourceFS(r.cfg.FS, r.result.DataDir, store.Lenient)
	if err != nil {
		return nil, err
	}
	return core.StreamAnalyzeContext(ctx, src, core.StreamOptions{
		Workers: r.workers,
		Metrics: r.cfg.Metrics,
		Span:    r.span,
		OnQuarantine: func(f core.ShardFailure) {
			// A quarantined shard is data loss: capture the process state
			// while the poison is still fresh (first incident per attempt).
			r.capturePostmortem(r.curStage, r.curAttempt, fmt.Sprintf("shard quarantined: %s", f))
		},
	})
}

// execVSession replays the configured virtual session on the sim
// stack and writes its per-second series to figures/vsession.csv. The
// series is a pure function of the session config and seed, so a
// retried or resumed stage reproduces the identical bytes — the digest
// in the journal line is the proof.
func (r *runner) execVSession(rec *stageRecord) error {
	vcfg := *r.cfg.VSession
	if vcfg.Seed == 0 {
		vcfg.Seed = r.cfg.Scenario.EffectiveSeed(r.cfg.Seed)
	}
	res, err := vsession.Run(vcfg)
	if err != nil {
		return err
	}
	out := filepath.Join(r.result.FiguresDir, "vsession.csv")
	if err := store.WriteFileAtomicFS(r.cfg.FS, out, func(w io.Writer) error {
		_, err := io.WriteString(w, res.CSV())
		return err
	}); err != nil {
		return err
	}
	rec.VDigest = res.Digest
	r.cfg.Log.Infof("stage %s: %s", StageVSession, res.Summary())
	return nil
}

// execRender writes every figure's data as manifested CSV artifacts.
// On a resumed run whose analyze stage completed in an earlier process
// the figures are not in memory; the streaming analysis is re-derived
// from disk — deterministic, so the rendered bytes cannot differ.
func (r *runner) execRender(ctx context.Context) error {
	if r.figs == nil {
		sa, err := r.analyze(ctx)
		if err != nil {
			return err
		}
		r.figs = sa.Figures()
	}
	files := make(map[string]string, len(r.figs))
	for id, f := range r.figs {
		files[id+".csv"] = f.CSV()
	}
	return store.ExportFiguresFS(r.cfg.FS, r.result.FiguresDir, r.cfg.Scenario.EffectiveSeed(r.cfg.Seed), r.cfg.Scale, files)
}
