// Package campaign runs a full measurement campaign — plan, generate/
// export, verify, analyze, render — as a crash-only supervised state
// machine. Every completed stage is journalled through the store's
// append-only fsynced journal, so a `kill -9` at any instant resumes
// with Resume and converges on the byte-identical artifact set; a
// watchdog fed by the observability counters declares a stage stalled
// when its progress stops, cancels it and retries it under the shared
// capped-jittered backoff policy. Failures degrade instead of aborting:
// generation quarantines panicking drives, the streaming analyzer
// quarantines poison shards, and both ledgers merge into one unified
// completeness certificate at the end.
package campaign

import (
	"fmt"
	"strings"
	"time"

	"satcell/internal/channel"
	"satcell/internal/core"
	"satcell/internal/dataset"
	"satcell/internal/obs"
	"satcell/internal/store"
	"satcell/internal/vsession"
)

// Stage names one step of the campaign pipeline.
type Stage string

// The pipeline, in run order. Generation and export are one stage:
// the export checkpoint already makes the pair internally resumable,
// so a coarser stage boundary loses nothing.
const (
	StagePlan     Stage = "plan"
	StageGenerate Stage = "generate"
	StageVerify   Stage = "verify"
	StageAnalyze  Stage = "analyze"
	StageRender   Stage = "render"
	// StageVSession is the optional virtual-session stage: it runs only
	// when Config.VSession is set, after render, and replays a
	// deterministic emulated transport session whose per-second CSV
	// lands next to the figures.
	StageVSession Stage = "vsession"
)

// Stages is the unconditional pipeline in execution order; the
// vsession stage is appended per run when configured, so this list
// stays the stable contract for journal replay of ordinary runs.
var Stages = []Stage{StagePlan, StageGenerate, StageVerify, StageAnalyze, StageRender}

// JournalName is the campaign's stage journal in the run directory.
const JournalName = "CAMPAIGN"

// TelemetryName is the flight recorder's journal in the run directory:
// span records, sampler snapshots and post-mortem pointers, appended
// through the same fsynced store journal as the stage log. It lives at
// the run-dir root, outside data/ and figures/, so telemetry never
// perturbs the byte-identical artifact digests.
const TelemetryName = "TELEMETRY"

// PostmortemDirName is the run-dir subdirectory that receives automatic
// post-mortem captures, one <stage>-<attempt> directory per incident.
const PostmortemDirName = "postmortem"

// Tool tags the campaign journal's meta line.
const Tool = "satcell-campaign"

// Config parameterises one campaign run.
type Config struct {
	// Dir is the run directory: the stage journal and lock live at its
	// root, the dataset in Dir/data, the figure CSVs in Dir/figures.
	Dir string
	// Seed and Scale mirror the generator's knobs; a scenario seed
	// (Scenario.Seed != 0) overrides Seed, as everywhere else.
	Seed  int64
	Scale float64
	// Scenario declares the campaign (nil means the paper's default).
	Scenario *dataset.Scenario
	// Workers bounds generation and streaming-analysis goroutines; 0
	// means one per core. Artifacts are bit-identical for every value.
	Workers int
	// Resume replays the stage journal and re-enters the pipeline after
	// the last durably completed stage, instead of refusing to reuse a
	// dirty directory.
	Resume bool
	// StallWindow is how long a supervised stage may go without counter
	// progress before the watchdog cancels it (default 30s). Stages
	// without progress counters (plan, verify, render) are not
	// watchdog-supervised: they are short and CPU/disk bound.
	StallWindow time.Duration
	// StageRetries bounds retries per failed or stalled stage; 0 means
	// the default (2), negative means none.
	StageRetries int
	// RetryBackoff is the base of the capped-jittered stage retry
	// backoff (default 50ms).
	RetryBackoff time.Duration
	// Metrics receives live progress from every stage (and feeds the
	// watchdog); nil gets an internal registry so supervision still
	// works unobserved.
	Metrics *obs.Registry
	// Events is ignored: stage transitions, retries and quarantines are
	// TELEMETRY spans. The field stays until the benchmark, which sets
	// it, changes.
	Events *obs.Tracer
	// SampleInterval is the flight recorder's metrics sampling period:
	// how often the registry snapshot is journalled into TELEMETRY
	// (default 1s; negative disables the sampler).
	SampleInterval time.Duration
	// Status, when non-nil, is kept current with the running stage,
	// attempt and watchdog last-progress time, for /debug/health.
	Status *Status
	// FS routes every disk operation (nil means the real filesystem);
	// the chaos suite injects faults here.
	FS store.FS
	// Log, when non-nil, narrates stage transitions and retries.
	Log *obs.Logger
	// VSession, when non-nil, appends the vsession stage: a virtual
	// emulated transport session (see internal/vsession) whose
	// per-second series is written to figures/vsession.csv and whose
	// digest is journalled. A zero VSession.Seed inherits the
	// campaign's effective seed.
	VSession *vsession.Config

	// Test seams, mirroring ExportOptions.BeforeFile: they run before
	// each stage attempt / generation unit / shard write, and the chaos
	// tests use them to cancel or panic at exact points.
	beforeStage func(Stage) error
	beforeUnit  func(drive int, network channel.NetworkID) error
	beforeFile  func(name string) error
}

// effectiveSeed resolves the scenario-seed override.
func (c *Config) effectiveSeed() int64 {
	if c.Scenario != nil && c.Scenario.Seed != 0 {
		return c.Scenario.Seed
	}
	return c.Seed
}

// Completeness is the campaign's unified degradation ledger: the
// generator's quarantined drives and the streaming analyzer's shard
// certificate, merged because the exit code answers one question — did
// every planned measurement make it into the figures?
type Completeness struct {
	// Gen itemises drives the degrading generator quarantined.
	Gen []dataset.DriveFailure `json:"gen,omitempty"`
	// Stream is the analyzer's shard certificate (nil until the analyze
	// stage has run).
	Stream *core.Completeness `json:"stream,omitempty"`
}

// Complete reports whether nothing was lost anywhere in the pipeline.
func (c *Completeness) Complete() bool {
	return len(c.Gen) == 0 && (c.Stream == nil || c.Stream.Complete())
}

// Err summarises the loss, nil when complete.
func (c *Completeness) Err() error {
	if c.Complete() {
		return nil
	}
	return fmt.Errorf("campaign: %s", c)
}

// String renders the one-line ledger summary.
func (c *Completeness) String() string {
	parts := []string{}
	if len(c.Gen) > 0 {
		parts = append(parts, fmt.Sprintf("%d drive(s) quarantined during generation", len(c.Gen)))
	}
	if c.Stream != nil && !c.Stream.Complete() {
		parts = append(parts, c.Stream.String())
	}
	if len(parts) == 0 {
		return "complete"
	}
	return strings.Join(parts, "; ")
}

// Result is the outcome of one supervised campaign run.
type Result struct {
	// Dir, DataDir and FiguresDir locate the run's artifacts.
	Dir        string
	DataDir    string
	FiguresDir string
	// Figures is the rendered figure set keyed by ID.
	Figures map[string]*core.Figure
	// Completeness is the unified degradation ledger.
	Completeness Completeness
	// Written and Reused count export shards generated vs adopted.
	Written, Reused int
	// Stalls and Retries total the supervisor's interventions.
	Stalls, Retries int
	// VDigest is the vsession stage's series digest ("" when the stage
	// did not run): two runs replayed the same virtual session iff
	// their digests match.
	VDigest string
}

// ExitCode maps the run to the satcell-analyze -stream convention:
// 0 complete, 3 partial (artifacts and figures exist, the certificate
// itemises the loss). Fatal errors never reach a Result and exit 1.
func (r *Result) ExitCode() int {
	if r.Completeness.Complete() {
		return 0
	}
	return 3
}

// Certificate renders the human-readable completeness certificate:
// the analyzer's shard figure plus the generator's quarantine ledger.
func (r *Result) Certificate() string {
	var b strings.Builder
	if r.Completeness.Stream != nil {
		b.WriteString(core.CompletenessFigure(r.Completeness.Stream).Render())
	}
	if len(r.Completeness.Gen) > 0 {
		fmt.Fprintf(&b, "generation quarantined %d drive(s):\n", len(r.Completeness.Gen))
		for _, f := range r.Completeness.Gen {
			fmt.Fprintf(&b, "  %s\n", f)
		}
	}
	if r.Completeness.Complete() {
		fmt.Fprintf(&b, "campaign complete: every planned measurement reached the figures\n")
	}
	return b.String()
}
