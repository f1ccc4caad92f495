package campaign

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"satcell/internal/channel"
	"satcell/internal/dataset"
	"satcell/internal/faults"
	"satcell/internal/obs"
	"satcell/internal/store"
	"satcell/internal/testutil"
)

// chaosConfig is the suite's campaign: small scale, two networks —
// large enough for two drives (so a mid-campaign drive can be
// quarantined), small enough to rerun many times under -race.
func chaosConfig(dir string) Config {
	return Config{
		Dir: dir, Seed: 42, Scale: 0.02, Workers: 2,
		Scenario: &dataset.Scenario{Networks: []channel.NetworkID{channel.StarlinkRoam, channel.ATT}},
	}
}

// cleanDigests runs one uninterrupted campaign and memoises the golden
// digests of its data and figure directories; every chaos scenario must
// converge on exactly these bytes.
var cleanOnce sync.Once
var cleanData, cleanFigs string

func cleanDigests(t *testing.T) (string, string) {
	t.Helper()
	cleanOnce.Do(func() {
		dir, err := os.MkdirTemp("", "campaign-clean-*")
		if err != nil {
			t.Fatal(err)
		}
		defer os.RemoveAll(dir)
		res, err := Run(context.Background(), chaosConfig(dir))
		if err != nil {
			t.Fatalf("clean run: %v", err)
		}
		if code := res.ExitCode(); code != 0 {
			t.Fatalf("clean run exit code = %d, want 0 (%s)", code, res.Completeness.String())
		}
		cleanData, cleanFigs = digest(t, res.DataDir), digest(t, res.FiguresDir)
	})
	if cleanData == "" || cleanFigs == "" {
		t.Fatalf("clean-run digests unavailable (earlier failure)")
	}
	return cleanData, cleanFigs
}

func digest(t *testing.T, dir string) string {
	t.Helper()
	d, err := store.DigestDir(dir)
	if err != nil {
		t.Fatalf("digest %s: %v", dir, err)
	}
	return d
}

// resumeAndCompare resumes an interrupted run directory and checks the
// converged artifacts against the golden digests.
func resumeAndCompare(t *testing.T, dir string) *Result {
	t.Helper()
	wantData, wantFigs := cleanDigests(t)
	cfg := chaosConfig(dir)
	cfg.Resume = true
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if code := res.ExitCode(); code != 0 {
		t.Fatalf("resumed run exit code = %d, want 0 (%s)", code, res.Completeness.String())
	}
	if got := digest(t, res.DataDir); got != wantData {
		t.Errorf("resumed data digest = %s, want %s (not byte-identical)", got, wantData)
	}
	if got := digest(t, res.FiguresDir); got != wantFigs {
		t.Errorf("resumed figures digest = %s, want %s (not byte-identical)", got, wantFigs)
	}
	return res
}

// TestCampaignCrashAtEveryStageBoundary hard-cancels the run at the
// entry of each pipeline stage in turn — the process-internal twin of
// `kill -9` at the boundary — then resumes and requires byte-identical
// artifacts and figures.
func TestCampaignCrashAtEveryStageBoundary(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	defer testutil.SettleGoroutines(t, baseline)
	cleanDigests(t)

	for _, victim := range Stages {
		victim := victim
		t.Run(string(victim), func(t *testing.T) {
			dir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := chaosConfig(dir)
			cfg.beforeStage = func(s Stage) error {
				if s == victim {
					cancel()
					return ctx.Err()
				}
				return nil
			}
			if _, err := Run(ctx, cfg); err == nil {
				t.Fatalf("run survived the crash at stage %s", victim)
			}
			resumeAndCompare(t, dir)
		})
	}
}

// TestCampaignCrashMidGenerate cancels in the middle of the generation
// worker pool (after a few sampling units) and resumes.
func TestCampaignCrashMidGenerate(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	defer testutil.SettleGoroutines(t, baseline)

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var units atomic.Int64
	cfg := chaosConfig(dir)
	cfg.beforeUnit = func(drive int, n channel.NetworkID) error {
		if units.Add(1) == 3 {
			cancel()
			return ctx.Err()
		}
		return nil
	}
	if _, err := Run(ctx, cfg); err == nil {
		t.Fatalf("run survived the mid-generate crash")
	}
	resumeAndCompare(t, dir)
}

// TestCampaignCrashMidExport cancels between shard writes — after the
// checkpoint journalled some shards — and requires the resume to adopt
// them (Reused > 0) and still converge byte-identically.
func TestCampaignCrashMidExport(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	defer testutil.SettleGoroutines(t, baseline)

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var files atomic.Int64
	cfg := chaosConfig(dir)
	cfg.beforeFile = func(name string) error {
		if files.Add(1) == 3 {
			cancel()
			return ctx.Err()
		}
		return nil
	}
	if _, err := Run(ctx, cfg); err == nil {
		t.Fatalf("run survived the mid-export crash")
	}
	res := resumeAndCompare(t, dir)
	if res.Reused < 2 {
		t.Errorf("resume reused %d shards, want >= 2 (checkpoint not honoured)", res.Reused)
	}
}

// TestCampaignStallWatchdog wedges a shard write with a scripted
// write-stall and requires the watchdog to cancel the stage, the
// supervisor to retry it, and the run to converge on the clean digest
// once the stall rule's budget is exhausted.
func TestCampaignStallWatchdog(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	defer testutil.SettleGoroutines(t, baseline)
	wantData, wantFigs := cleanDigests(t)

	// The stall (2.5s) dwarfs the window (500ms), and the window dwarfs
	// any honest inter-counter gap — even under -race — so the watchdog
	// fires on the injected wedge and only on it. x2 exhausts the rule
	// within the default retry budget.
	sched, err := faults.ParseIOSpec("write-stall:drive001_*:x2:+2500ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := chaosConfig(dir)
	cfg.FS = store.NewFaultFS(nil, sched)
	cfg.StallWindow = 500 * time.Millisecond
	cfg.Metrics = obs.NewRegistry()
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("stalled campaign did not converge: %v", err)
	}
	if res.Stalls == 0 {
		t.Errorf("watchdog never fired despite the write-stall rule")
	}
	if res.Retries == 0 {
		t.Errorf("stage was never retried despite the stall")
	}
	if got := digest(t, res.DataDir); got != wantData {
		t.Errorf("post-stall data digest = %s, want %s", got, wantData)
	}
	if got := digest(t, res.FiguresDir); got != wantFigs {
		t.Errorf("post-stall figures digest = %s, want %s", got, wantFigs)
	}
	if got := cfg.Metrics.Counter("campaign.stage_stalls").Value(); got == 0 {
		t.Errorf("campaign.stage_stalls counter = 0, want > 0")
	}
}

// TestCampaignQuarantinedDrive panics one generation unit and requires
// the run to complete degraded: the drive quarantined and itemised, the
// dataset fsck-clean, the analysis certificate complete, and exit 3.
func TestCampaignQuarantinedDrive(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	defer testutil.SettleGoroutines(t, baseline)

	dir := t.TempDir()
	cfg := chaosConfig(dir)
	cfg.beforeUnit = func(drive int, n channel.NetworkID) error {
		if drive == 1 && n == channel.StarlinkRoam {
			panic("injected drive meltdown")
		}
		return nil
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("degraded campaign aborted: %v", err)
	}
	if code := res.ExitCode(); code != 3 {
		t.Fatalf("exit code = %d, want 3 (partial campaign)", code)
	}
	if len(res.Completeness.Gen) != 1 || res.Completeness.Gen[0].Drive != 1 {
		t.Fatalf("quarantine ledger = %+v, want exactly drive 1", res.Completeness.Gen)
	}
	if got := res.Completeness.Gen[0].Class; got != dataset.FailPanic {
		t.Errorf("failure class = %q, want %q", got, dataset.FailPanic)
	}
	cert := res.Certificate()
	if !strings.Contains(cert, "drive001") || !strings.Contains(cert, "meltdown") {
		t.Errorf("certificate does not itemise the quarantined drive:\n%s", cert)
	}
	if res.Completeness.Stream == nil || !res.Completeness.Stream.Complete() {
		t.Errorf("stream certificate = %+v, want complete (the loss happened upstream)", res.Completeness.Stream)
	}
	// The exported directory must be declared-partial, not torn: fsck
	// clean, and the manifest itemises the quarantined drive.
	rep, err := store.FsckFS(nil, res.DataDir)
	if err != nil {
		t.Fatalf("fsck: %v", err)
	}
	if !rep.OK() {
		t.Errorf("degraded export is not fsck-clean:\n%s", rep)
	}
	m, err := store.ReadManifestFS(nil, res.DataDir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Campaign == nil || len(m.Campaign.Quarantined) != 1 {
		t.Errorf("manifest quarantine record = %+v, want 1 entry", m.Campaign)
	}
	for name := range m.Files {
		if strings.HasPrefix(name, "drive001") {
			t.Errorf("quarantined drive's shard %s still exported", name)
		}
	}
}

// TestCampaignLockHeld requires the supervisor to refuse a directory
// another live process holds locked.
func TestCampaignLockHeld(t *testing.T) {
	dir := t.TempDir()
	lock, err := store.AcquireLock(nil, dir, "other-tool")
	if err != nil {
		t.Fatal(err)
	}
	defer lock.Release()
	if _, err := Run(context.Background(), chaosConfig(dir)); err == nil {
		t.Fatalf("Run acquired a directory locked by another tool")
	} else if !strings.Contains(err.Error(), "other-tool") {
		t.Errorf("lock error does not name the holder: %v", err)
	}
}

// TestCampaignResumeSeedMismatch requires a resume with different
// campaign parameters to refuse rather than mix two campaigns.
func TestCampaignResumeSeedMismatch(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(context.Background(), chaosConfig(dir)); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	cfg := chaosConfig(dir)
	cfg.Seed, cfg.Resume = 43, true
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatalf("resume with a different seed succeeded")
	}
}

// TestCampaignVerifyHealsCorruption corrupts an exported shard behind
// the journal's back (analyze/render not yet run), then resumes: the
// verify stage must detect it and the pipeline must heal by re-entering
// generate, converging on the clean digests.
func TestCampaignVerifyHealsCorruption(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	defer testutil.SettleGoroutines(t, baseline)

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := chaosConfig(dir)
	cfg.beforeStage = func(s Stage) error {
		if s == StageVerify {
			cancel()
			return ctx.Err()
		}
		return nil
	}
	if _, err := Run(ctx, cfg); err == nil {
		t.Fatalf("run survived the crash before verify")
	}

	// Bit-rot one exported shard while the campaign is down.
	var victim string
	entries, err := os.ReadDir(filepath.Join(dir, "data"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "drive") {
			victim = filepath.Join(dir, "data", e.Name())
			break
		}
	}
	if victim == "" {
		t.Fatalf("no exported shard to corrupt")
	}
	b, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(victim, b, 0o644); err != nil {
		t.Fatal(err)
	}

	res := resumeAndCompare(t, dir)
	if res.Retries == 0 {
		t.Errorf("healing left no retry trace (want the verify->generate heal counted)")
	}
}
