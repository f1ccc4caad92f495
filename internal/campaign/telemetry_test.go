package campaign

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"satcell/internal/faults"
	"satcell/internal/obs"
	"satcell/internal/store"
	"satcell/internal/testutil"
)

// TestCampaignTelemetryCleanRun checks the black box of an
// uninterrupted campaign: one run, a full span tree with every span
// closed ok, sampler snapshots, and both renderers working off it.
func TestCampaignTelemetryCleanRun(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	defer testutil.SettleGoroutines(t, baseline)

	dir := t.TempDir()
	cfg := chaosConfig(dir)
	cfg.SampleInterval = 5 * time.Millisecond
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatalf("clean run: %v", err)
	}

	meta, log, err := ReadTelemetry(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Seed != 42 || meta.Tool != Tool {
		t.Fatalf("telemetry meta = %+v", meta)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	if log.Open() != 0 {
		t.Fatalf("clean run left %d spans open", log.Open())
	}
	// The tree covers the whole pipeline: a campaign root, every stage,
	// an attempt per stage, and unit/shard leaves underneath generate and
	// analyze.
	kinds := map[obs.SpanKind]int{}
	stages := map[string]bool{}
	log.Walk(func(s *obs.ReplaySpan) {
		kinds[s.Kind]++
		if s.Kind == obs.SpanStage {
			stages[s.Name] = true
		}
		if s.Closed && s.Outcome == "" {
			t.Errorf("span %s/%s closed without an outcome", s.Kind, s.Name)
		}
	})
	if kinds[obs.SpanCampaign] != 1 || kinds[obs.SpanStage] != len(Stages) {
		t.Fatalf("kind census = %v, want 1 campaign and %d stages", kinds, len(Stages))
	}
	for _, st := range Stages {
		if !stages[string(st)] {
			t.Errorf("stage %s has no span", st)
		}
	}
	if kinds[obs.SpanUnit] == 0 || kinds[obs.SpanShard] == 0 {
		t.Fatalf("kind census = %v, want unit and shard leaves", kinds)
	}
	if len(log.Runs[0].Samples) == 0 {
		t.Fatal("sampler journalled no metrics snapshots")
	}
	rep := obs.RenderFlightReport(log)
	if !strings.Contains(rep, "incidents: none") {
		t.Errorf("clean run reports incidents:\n%s", rep)
	}
	if !strings.Contains(rep, "per-worker busy time") {
		t.Errorf("report missing worker utilization:\n%s", rep)
	}
	sum := obs.Summarize(log)
	if sum.Open != 0 || sum.Outcomes[obs.SpanOK] == 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if _, err := json.Marshal(sum); err != nil {
		t.Fatalf("summary not marshalable: %v", err)
	}
}

// TestCampaignTelemetryKillResume interrupts a campaign mid-export,
// manually tears the TELEMETRY tail the way a kill -9 mid-append would,
// and checks that (a) the torn journal still replays to a consistent
// span tree with the interrupted run's evidence, and (b) a resume
// appends a second run that the report stitches into one timeline.
func TestCampaignTelemetryKillResume(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	defer testutil.SettleGoroutines(t, baseline)

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var files atomic.Int64
	cfg := chaosConfig(dir)
	cfg.SampleInterval = 5 * time.Millisecond
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

	// Append what a kill -9 leaves behind: one whole span-start record
	// whose End never made it (id far above the run's real allocations),
	// then a torn half-record with no trailing newline.
	tel := filepath.Join(dir, TelemetryName)
	f, err := os.OpenFile(tel, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"span-start","id":9999,"parent":0,"kind":"unit","name":"w00/fake","elapsed_us":123}` + "\n" +
		`{"t":"span-end","id":9999,"outc`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	_, log, err := ReadTelemetry(nil, dir)
	if err != nil {
		t.Fatalf("torn journal did not replay: %v", err)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1 before resume", len(log.Runs))
	}
	if log.Open() == 0 {
		t.Fatal("injected open span not reported")
	}
	interrupted := 0
	log.Walk(func(s *obs.ReplaySpan) {
		if s.Closed && s.Outcome == "" {
			t.Errorf("span %s/%s closed without an outcome", s.Kind, s.Name)
		}
		if s.Closed && s.Outcome == obs.SpanCancelled {
			interrupted++
		}
	})
	if interrupted == 0 {
		t.Error("interrupt left no cancelled spans")
	}

	// Resume heals the torn tail and appends run 2.
	res := resumeAndCompare(t, dir)
	if res.Written == 0 && res.Reused == 0 {
		t.Fatalf("resume did no work: %+v", res)
	}
	_, log2, err := ReadTelemetry(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(log2.Runs) != 2 {
		t.Fatalf("runs = %d after resume, want 2 stitched", len(log2.Runs))
	}
	if log2.Runs[1].Open != 0 {
		t.Fatalf("resumed run left %d spans open", log2.Runs[1].Open)
	}
	// Run 1's crash evidence survives the resume byte-for-byte: the
	// injected open span is still there, only the torn fragment is gone.
	foundFake := false
	log2.Walk(func(s *obs.ReplaySpan) {
		if s.Run == 1 && s.ID == 9999 && !s.Closed {
			foundFake = true
		}
	})
	if !foundFake {
		t.Fatal("resume did not preserve run 1's open-span evidence")
	}
	rep := obs.RenderFlightReport(log2)
	if !strings.Contains(rep, "== run 1:") || !strings.Contains(rep, "== run 2:") {
		t.Fatalf("report does not stitch both runs:\n%s", rep)
	}
	sum := obs.Summarize(log2)
	if len(sum.Runs) != 2 || sum.Open != log2.Open() {
		t.Fatalf("summary = %+v", sum)
	}
}

// TestCampaignStallPostmortem wedges a shard write so the watchdog
// trips, and requires the automatic post-mortem: a non-empty
// postmortem/<stage>-<attempt>/ directory captured before the stage was
// cancelled, with the goroutine dump and metrics snapshot, plus the
// journalled pointer and stalled span outcome in TELEMETRY.
func TestCampaignStallPostmortem(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	defer testutil.SettleGoroutines(t, baseline)

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
		t.Fatal("watchdog never fired despite the write-stall rule")
	}

	// The capture directory exists and holds the evidence.
	pmRoot := filepath.Join(dir, PostmortemDirName)
	entries, err := os.ReadDir(pmRoot)
	if err != nil || len(entries) == 0 {
		t.Fatalf("postmortem dir empty or missing (%v): %v", entries, err)
	}
	capDir := filepath.Join(pmRoot, entries[0].Name())
	if !strings.HasPrefix(entries[0].Name(), string(StageGenerate)+"-") {
		t.Errorf("capture dir %q not named <stage>-<attempt>", entries[0].Name())
	}
	for _, name := range []string{"goroutines.txt", "heap.pprof", "metrics.json", "reason.txt"} {
		b, err := os.ReadFile(filepath.Join(capDir, name))
		if err != nil {
			t.Errorf("capture missing %s: %v", name, err)
			continue
		}
		if len(b) == 0 {
			t.Errorf("capture %s is empty", name)
		}
	}
	// The goroutine dump must show the wedged writer (captured *before*
	// the stage was cancelled, or the evidence would be gone).
	g, err := os.ReadFile(filepath.Join(capDir, "goroutines.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(g), "goroutine") {
		t.Errorf("goroutines.txt does not look like a pprof dump")
	}
	reason, err := os.ReadFile(filepath.Join(capDir, "reason.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(reason), "watchdog") {
		t.Errorf("reason.txt = %q, want the watchdog trip recorded", reason)
	}
	var snap map[string]any
	m, err := os.ReadFile(filepath.Join(capDir, "metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(m, &snap); err != nil {
		t.Fatalf("metrics.json not valid JSON: %v", err)
	}
	if got := cfg.Metrics.Counter("campaign.postmortems").Value(); got == 0 {
		t.Error("campaign.postmortems counter = 0, want > 0")
	}

	// TELEMETRY journalled the pointer and the stalled attempt.
	_, log, err := ReadTelemetry(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	sum := obs.Summarize(log)
	if sum.Postmortems == 0 {
		t.Fatal("no postmortem pointer journalled")
	}
	if sum.Outcomes[obs.SpanStalled] == 0 {
		t.Fatal("no span tagged stalled")
	}
	rep := obs.RenderFlightReport(log)
	if !strings.Contains(rep, "postmortem") || !strings.Contains(rep, "stalled") {
		t.Fatalf("report missing the incident:\n%s", rep)
	}
}

// TestCampaignPostmortemCapture unit-tests the capture path: layout,
// content, the one-per-attempt guard, and the per-attempt reset.
func TestCampaignPostmortemCapture(t *testing.T) {
	dir := t.TempDir()
	r := &runner{cfg: Config{Dir: dir, Metrics: obs.NewRegistry()}}

	got := r.capturePostmortem(StageGenerate, 2, "test: injected stall")
	want := filepath.Join(dir, PostmortemDirName, "generate-2")
	if got != want {
		t.Fatalf("capture dir = %q, want %q", got, want)
	}
	files, err := os.ReadDir(want)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		names = append(names, f.Name())
	}
	if got := strings.Join(names, " "); got != "goroutines.txt heap.pprof metrics.json reason.txt" {
		t.Fatalf("capture holds %q, want the four-file layout", got)
	}
	for _, name := range names {
		if b := readFile(t, filepath.Join(want, name)); len(b) == 0 {
			t.Fatalf("capture %s is empty", name)
		}
	}
	reason, err := os.ReadFile(filepath.Join(want, "reason.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(reason), "attempt=2") || !strings.Contains(string(reason), "injected stall") {
		t.Fatalf("reason.txt = %q", reason)
	}

	// Second incident in the same attempt: guarded, no second capture.
	if again := r.capturePostmortem(StageGenerate, 2, "second incident"); again != "" {
		t.Fatalf("guard failed: second capture landed in %q", again)
	}
	if got := r.cfg.Metrics.Counter("campaign.postmortems").Value(); got != 1 {
		t.Fatalf("postmortems counter = %d, want 1", got)
	}

	// A new attempt resets the guard (runStage does this store).
	r.pmGuard.Store(false)
	if next := r.capturePostmortem(StageGenerate, 3, "next attempt"); next == "" {
		t.Fatal("guard not resettable per attempt")
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCampaignTelemetryWriteErrorWarns resumes a finished campaign onto
// a disk that fails every TELEMETRY append with ENOSPC. Telemetry must
// not fail the run, so it still ends with exit code 0, but the run must
// say once that its journal is incomplete.
func TestCampaignTelemetryWriteErrorWarns(t *testing.T) {
	dir := t.TempDir()
	cfg := chaosConfig(dir)
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	sched, err := faults.ParseIOSpec("enospc:"+TelemetryName, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FS = store.NewFaultFS(nil, sched)
	cfg.Resume = true
	// A logger writes to the os.Stderr it was built with: build this one
	// on a file.
	logFile, err := os.Create(filepath.Join(t.TempDir(), "log"))
	if err != nil {
		t.Fatal(err)
	}
	defer logFile.Close()
	stderr := os.Stderr
	os.Stderr = logFile
	cfg.Log = obs.NewLogger(Tool)
	os.Stderr = stderr
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("resume onto a full disk: %v", err)
	}
	if code := res.ExitCode(); code != 0 {
		t.Errorf("exit code = %d, want 0", code)
	}
	log, err := os.ReadFile(logFile.Name())
	if err != nil {
		t.Fatal(err)
	}
	var warns []string
	for _, line := range strings.Split(string(log), "\n") {
		if strings.Contains(line, "WARN") && strings.Contains(line, filepath.Join(dir, TelemetryName)) {
			warns = append(warns, line)
		}
	}
	if len(warns) != 1 || !strings.Contains(warns[0], "no space left on device") {
		t.Fatalf("telemetry warnings = %q, want one naming ENOSPC\nlog:\n%s", warns, log)
	}
}
