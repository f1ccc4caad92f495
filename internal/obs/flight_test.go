package obs

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"satcell/internal/testutil"
)

// memSink is the test TelemetrySink: it marshals each record the way the
// store journal would, so replaying its entries exercises the same JSON
// round-trip as a real TELEMETRY file.
type memSink struct {
	mu  sync.Mutex
	raw []json.RawMessage
	err error
}

func (s *memSink) Append(v any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	s.raw = append(s.raw, json.RawMessage(b))
	return nil
}

func (s *memSink) entries() []json.RawMessage {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]json.RawMessage(nil), s.raw...)
}

// rawRecords marshals hand-authored records for replay-validation tests.
func rawRecords(t *testing.T, recs ...TelemetryRecord) []json.RawMessage {
	t.Helper()
	out := make([]json.RawMessage, 0, len(recs))
	for _, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

func TestFlightRecorderReplayTree(t *testing.T) {
	sink := &memSink{}
	rec := NewFlightRecorder(sink, 1)
	camp := rec.Begin(SpanCampaign, "satcell-campaign")
	st := camp.Child(SpanStage, "generate")
	att := st.Child(SpanAttempt, "generate#1")
	u1 := att.Child(SpanUnit, WorkerPrefix(0)+"drive000:RM")
	u1.End(SpanOK, "")
	u2 := att.Child(SpanUnit, WorkerPrefix(1)+"drive001:RM")
	u2.End(SpanQuarantined, "injected meltdown")
	att.End(SpanOK, "")
	st.End(SpanOK, "")
	camp.End(SpanOK, "complete")
	if err := rec.Err(); err != nil {
		t.Fatalf("recorder error: %v", err)
	}

	log, err := ReplayTelemetry(sink.entries())
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Runs) != 1 || log.Runs[0].Run != 1 {
		t.Fatalf("runs = %+v, want one run numbered 1", log.Runs)
	}
	run := log.Runs[0]
	if run.Spans != 5 || run.Open != 0 {
		t.Fatalf("spans=%d open=%d, want 5/0", run.Spans, run.Open)
	}
	if len(run.Roots) != 1 || run.Roots[0].Kind != SpanCampaign {
		t.Fatalf("roots = %+v, want one campaign root", run.Roots)
	}
	// The hierarchy survives the round-trip: campaign -> stage ->
	// attempt -> two units, each with its recorded outcome.
	stage := run.Roots[0].Children[0]
	if stage.Kind != SpanStage || stage.Name != "generate" {
		t.Fatalf("stage span = %+v", stage)
	}
	attempt := stage.Children[0]
	if attempt.Kind != SpanAttempt || len(attempt.Children) != 2 {
		t.Fatalf("attempt span = %+v", attempt)
	}
	if got := attempt.Children[1]; got.Outcome != SpanQuarantined || got.Detail != "injected meltdown" {
		t.Fatalf("unit outcome = %q detail %q, want quarantined", got.Outcome, got.Detail)
	}
	log.Walk(func(s *ReplaySpan) {
		if !s.Closed {
			t.Errorf("span %d (%s) left open by a clean run", s.ID, s.Name)
		}
		if s.Closed && s.Outcome == "" {
			t.Errorf("span %d closed without an outcome", s.ID)
		}
	})
	if log.Spans() != 5 || log.Open() != 0 {
		t.Fatalf("totals = %d/%d, want 5/0", log.Spans(), log.Open())
	}
}

func TestFlightReplayOpenSpans(t *testing.T) {
	// A kill -9 leaves start records with no end: replay must tolerate
	// them and report them per run, and Duration must extend the open
	// span to the replay horizon.
	entries := rawRecords(t,
		TelemetryRecord{T: RecRun, Run: 1},
		TelemetryRecord{T: RecSpanStart, ID: 1, Kind: SpanCampaign, Name: "c", ElapsedUS: 0},
		TelemetryRecord{T: RecSpanStart, ID: 2, Parent: 1, Kind: SpanStage, Name: "generate", ElapsedUS: 10},
		TelemetryRecord{T: RecMetrics, ElapsedUS: 5000, Vars: map[string]any{"x": 1}},
	)
	log, err := ReplayTelemetry(entries)
	if err != nil {
		t.Fatal(err)
	}
	run := log.Runs[0]
	if run.Spans != 2 || run.Open != 2 {
		t.Fatalf("spans=%d open=%d, want 2 open spans", run.Spans, run.Open)
	}
	if run.LastUS != 5000 {
		t.Fatalf("horizon = %d, want 5000 (largest elapsed offset)", run.LastUS)
	}
	st := run.Roots[0].Children[0]
	if st.Closed {
		t.Fatal("crashed span reported closed")
	}
	if got := st.Duration(run.LastUS); got != 4990*time.Microsecond {
		t.Fatalf("open span duration = %v, want 4.99ms (to horizon)", got)
	}
}

func TestFlightReplayImplicitRun(t *testing.T) {
	// Records before any run marker (an older writer) are adopted into
	// an implicit run 1.
	entries := rawRecords(t,
		TelemetryRecord{T: RecSpanStart, ID: 1, Kind: SpanStage, Name: "s"},
		TelemetryRecord{T: RecSpanEnd, ID: 1, Outcome: SpanOK, ElapsedUS: 3},
	)
	log, err := ReplayTelemetry(entries)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Runs) != 1 || log.Runs[0].Run != 1 || log.Runs[0].Spans != 1 {
		t.Fatalf("implicit run = %+v", log.Runs)
	}
}

func TestFlightReplayResumeStitching(t *testing.T) {
	// Two process runs appending to one journal (crash + resume): replay
	// groups records positionally, one RunLog per RecRun marker, and span
	// ids may repeat across runs without clashing.
	sink := &memSink{}
	r1 := NewFlightRecorder(sink, 1)
	c1 := r1.Begin(SpanCampaign, "satcell-campaign")
	s1 := c1.Child(SpanStage, "generate")
	_ = s1 // killed mid-stage: neither span ends
	r2 := NewFlightRecorder(sink, 2)
	c2 := r2.Begin(SpanCampaign, "satcell-campaign")
	s2 := c2.Child(SpanStage, "generate")
	s2.End(SpanOK, "")
	c2.End(SpanOK, "complete")

	log, err := ReplayTelemetry(sink.entries())
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Runs) != 2 {
		t.Fatalf("runs = %d, want 2", len(log.Runs))
	}
	if log.Runs[0].Run != 1 || log.Runs[1].Run != 2 {
		t.Fatalf("run numbers = %d,%d want 1,2", log.Runs[0].Run, log.Runs[1].Run)
	}
	if log.Runs[0].Open != 2 || log.Runs[1].Open != 0 {
		t.Fatalf("open = %d,%d: crash evidence must stay in run 1 only",
			log.Runs[0].Open, log.Runs[1].Open)
	}
	if log.Spans() != 4 || log.Open() != 2 {
		t.Fatalf("totals = %d spans %d open, want 4/2", log.Spans(), log.Open())
	}
}

func TestFlightReplayConsistencyErrors(t *testing.T) {
	cases := []struct {
		name string
		recs []TelemetryRecord
		want string
	}{
		{"start without id",
			[]TelemetryRecord{{T: RecSpanStart, Kind: SpanStage}},
			"span-start without id"},
		{"started twice",
			[]TelemetryRecord{
				{T: RecSpanStart, ID: 1, Kind: SpanStage},
				{T: RecSpanStart, ID: 1, Kind: SpanStage}},
			"started twice"},
		{"unknown parent",
			[]TelemetryRecord{{T: RecSpanStart, ID: 2, Parent: 7, Kind: SpanUnit}},
			"unknown parent 7"},
		{"end for unknown span",
			[]TelemetryRecord{{T: RecSpanEnd, ID: 9, Outcome: SpanOK}},
			"unknown span 9"},
		{"ended twice",
			[]TelemetryRecord{
				{T: RecSpanStart, ID: 1, Kind: SpanStage},
				{T: RecSpanEnd, ID: 1, Outcome: SpanOK},
				{T: RecSpanEnd, ID: 1, Outcome: SpanOK}},
			"ended twice"},
		{"end without outcome",
			[]TelemetryRecord{
				{T: RecSpanStart, ID: 1, Kind: SpanStage},
				{T: RecSpanEnd, ID: 1}},
			"without an outcome"},
		{"end before start",
			[]TelemetryRecord{
				{T: RecSpanStart, ID: 1, Kind: SpanStage, ElapsedUS: 100},
				{T: RecSpanEnd, ID: 1, Outcome: SpanOK, ElapsedUS: 50}},
			"before its start"},
		{"unknown record type",
			[]TelemetryRecord{{T: "bogus"}},
			`unknown record type "bogus"`},
		{"own parent",
			[]TelemetryRecord{{T: RecSpanStart, ID: 3, Parent: 3, Kind: SpanStage}},
			"unknown parent 3"},
		{"negative offset",
			[]TelemetryRecord{{T: RecSpanStart, ID: 1, Kind: SpanStage, ElapsedUS: -5}},
			"negative elapsed offset -5us"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReplayTelemetry(rawRecords(t, tc.recs...))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
	// Malformed JSON fails with the entry number.
	if _, err := ReplayTelemetry([]json.RawMessage{json.RawMessage("not-json")}); err == nil ||
		!strings.Contains(err.Error(), "entry 1") {
		t.Fatalf("malformed entry error = %v", err)
	}
}

func TestFlightNilSafety(t *testing.T) {
	// The whole recorder API must be a usable no-op on nil, the same
	// contract the registry and tracer honour: instrumented code carries
	// no conditionals.
	if NewFlightRecorder(nil, 1) != nil {
		t.Fatal("nil sink must yield a nil recorder")
	}
	var r *FlightRecorder
	if r.Elapsed() != 0 || r.Err() != nil {
		t.Fatal("nil recorder getters must read zero")
	}
	r.RecordMetrics(map[string]any{"x": 1})
	r.RecordPostmortem("generate", 1, "dir", "reason")
	s := r.Begin(SpanCampaign, "c")
	if s != nil {
		t.Fatal("nil recorder must hand out nil spans")
	}
	if c := s.Child(SpanStage, "st"); c != nil {
		t.Fatal("nil span must yield nil children")
	}
	s.End(SpanOK, "no crash")
}

func TestFlightSinkErrorSticky(t *testing.T) {
	boom := errors.New("disk full")
	sink := &memSink{err: boom}
	rec := NewFlightRecorder(sink, 1)
	if rec == nil {
		t.Fatal("a failing sink is still a sink: recorder must exist")
	}
	sp := rec.Begin(SpanStage, "s")
	sp.End(SpanFailed, "x")
	if !errors.Is(rec.Err(), boom) {
		t.Fatalf("Err() = %v, want the first sink error", rec.Err())
	}
}

func TestFlightSpanEndIdempotent(t *testing.T) {
	sink := &memSink{}
	rec := NewFlightRecorder(sink, 1)
	sp := rec.Begin(SpanStage, "s")
	sp.End(SpanOK, "")
	sp.End(SpanFailed, "late defensive End must not double-append")
	log, err := ReplayTelemetry(sink.entries())
	if err != nil {
		t.Fatalf("double End corrupted the journal: %v", err)
	}
	if got := log.Runs[0].Roots[0].Outcome; got != SpanOK {
		t.Fatalf("outcome = %q, want the first End to win", got)
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	// Worker pools begin/end spans concurrently; ids must stay unique
	// and the journal replayable. Run under -race this also exercises
	// the locking.
	sink := &memSink{}
	rec := NewFlightRecorder(sink, 1)
	root := rec.Begin(SpanAttempt, "generate#1")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := root.Child(SpanUnit, WorkerPrefix(w)+"unit")
				sp.End(SpanOK, "")
			}
		}(w)
	}
	wg.Wait()
	root.End(SpanOK, "")
	log, err := ReplayTelemetry(sink.entries())
	if err != nil {
		t.Fatal(err)
	}
	if log.Spans() != 401 || log.Open() != 0 {
		t.Fatalf("spans=%d open=%d, want 401/0", log.Spans(), log.Open())
	}
}

func TestFlightSamplerSnapshotsAndStops(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	sink := &memSink{}
	rec := NewFlightRecorder(sink, 1)
	reg := NewRegistry()
	reg.Counter("stream.rows_done").Add(42)
	s := StartSampler(rec, reg, 2*time.Millisecond)
	if s == nil {
		t.Fatal("sampler did not start")
	}
	time.Sleep(15 * time.Millisecond)
	s.Stop()
	s.Stop() // idempotent
	testutil.SettleGoroutines(t, baseline)

	log, err := ReplayTelemetry(sink.entries())
	if err != nil {
		t.Fatal(err)
	}
	samples := log.Runs[0].Samples
	if len(samples) == 0 {
		t.Fatal("sampler journalled no metrics snapshots")
	}
	// Stop takes a final snapshot; JSON round-trips int64 counters as
	// float64, which is what dashboards read anyway.
	last := samples[len(samples)-1]
	if got := last.Vars["stream.rows_done"]; got != 42.0 {
		t.Fatalf("final snapshot rows_done = %v, want 42", got)
	}
}

func TestFlightSamplerNilCases(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	reg := NewRegistry()
	rec := NewFlightRecorder(&memSink{}, 1)
	if StartSampler(nil, reg, time.Second) != nil {
		t.Fatal("nil recorder must not start a sampler")
	}
	if StartSampler(rec, nil, time.Second) != nil {
		t.Fatal("nil registry must not start a sampler")
	}
	if StartSampler(rec, reg, 0) != nil {
		t.Fatal("non-positive interval must not start a sampler")
	}
	var s *Sampler
	s.Stop() // no crash
	testutil.SettleGoroutines(t, baseline)
}

func TestFlightWorkerPrefix(t *testing.T) {
	if got := WorkerPrefix(3); got != "w03/" {
		t.Fatalf("WorkerPrefix(3) = %q", got)
	}
	for name, want := range map[string][2]string{
		"w07/drive001:RM": {"w07", "drive001:RM"},
		"drive001:RM":     {"", "drive001:RM"},
		"wxy/no":          {"", "wxy/no"},
		"w1/short":        {"", "w1/short"},
	} {
		w, bare := splitWorker(name)
		if w != want[0] || bare != want[1] {
			t.Errorf("splitWorker(%q) = %q,%q want %q,%q", name, w, bare, want[0], want[1])
		}
	}
}

// buildIncidentLog records a crashed-then-resumed campaign with a
// retry, a quarantine and a post-mortem pointer — the report renderer's
// worst case.
func buildIncidentLog(t *testing.T) *FlightLog {
	t.Helper()
	sink := &memSink{}
	r1 := NewFlightRecorder(sink, 1)
	c1 := r1.Begin(SpanCampaign, "satcell-campaign")
	st1 := c1.Child(SpanStage, "generate")
	at1 := st1.Child(SpanAttempt, "generate#1")
	u := at1.Child(SpanUnit, WorkerPrefix(0)+"drive000:RM")
	u.End(SpanOK, "")
	// killed here: c1/st1/at1 never end

	r2 := NewFlightRecorder(sink, 2)
	c2 := r2.Begin(SpanCampaign, "satcell-campaign")
	st2 := c2.Child(SpanStage, "generate")
	at2 := st2.Child(SpanAttempt, "generate#1")
	at2.End(SpanStalled, "no counter progress for 500ms")
	r2.RecordPostmortem("generate", 1, "run/postmortem/generate-1", "watchdog")
	at3 := st2.Child(SpanAttempt, "generate#2")
	sh := at3.Child(SpanShard, WorkerPrefix(1)+"drive001_RM_shard")
	sh.End(SpanQuarantined, "poison shard")
	at3.End(SpanOK, "")
	st2.End(SpanRetried, "ok on attempt 2/3")
	c2.End(SpanOK, "complete")
	r2.RecordMetrics(map[string]any{"stream.rows_done": 10})

	log, err := ReplayTelemetry(sink.entries())
	if err != nil {
		t.Fatal(err)
	}
	return log
}

func TestFlightReportRender(t *testing.T) {
	log := buildIncidentLog(t)
	out := RenderFlightReport(log)
	for _, want := range []string{
		"flight report: 2 run(s)",
		"== run 1:",
		"== run 2:",
		"campaign/satcell-campaign",
		"stage/generate",
		"attempt/generate#1",
		"+- 1 leaf spans: 1 ok",          // run 1's unit fan-out summary
		"+- 1 leaf spans: 1 quarantined", // run 2's shard fan-out summary
		"open",                           // crash evidence tagged in the waterfall
		"no end record: in flight at exit",
		"stalled",
		"postmortem generate attempt 1 -> run/postmortem/generate-1 (watchdog)",
		"per-worker busy time",
		"w00",
		"w01",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if got := RenderFlightReport(&FlightLog{}); !strings.Contains(got, "no telemetry") {
		t.Fatalf("empty report = %q", got)
	}
}

// benchSink marshals records the way the store journal would but skips
// the fsync, isolating the recorder's CPU cost (the journal's fsync
// dominates the real append and is bounded separately).
type benchSink struct{}

func (benchSink) Append(v any) error {
	_, err := json.Marshal(v)
	return err
}

func BenchmarkFlightSpan(b *testing.B) {
	rec := NewFlightRecorder(benchSink{}, 1)
	root := rec.Begin(SpanAttempt, "bench#1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := root.Child(SpanUnit, "w00/drive000:RM")
		sp.End(SpanOK, "")
	}
}

func BenchmarkFlightSample(b *testing.B) {
	reg := NewRegistry()
	for i := 0; i < 32; i++ {
		reg.Counter(WorkerPrefix(i) + "counter").Add(int64(i))
	}
	rec := NewFlightRecorder(benchSink{}, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.RecordMetrics(reg.Snapshot())
	}
}

func TestFlightSummarize(t *testing.T) {
	log := buildIncidentLog(t)
	sum := Summarize(log)
	if len(sum.Runs) != 2 {
		t.Fatalf("summary runs = %d, want 2", len(sum.Runs))
	}
	if sum.Spans != log.Spans() || sum.Open != log.Open() {
		t.Fatalf("summary totals %d/%d != log totals %d/%d",
			sum.Spans, sum.Open, log.Spans(), log.Open())
	}
	if sum.Postmortems != 1 {
		t.Fatalf("postmortems = %d, want 1", sum.Postmortems)
	}
	for _, o := range []Outcome{SpanOK, SpanStalled, SpanQuarantined, SpanRetried} {
		if sum.Outcomes[o] == 0 {
			t.Errorf("journal-wide outcome %q not counted", o)
		}
	}
	// Run 2's stage timeline: one generate stage, two attempts, final
	// outcome retried.
	r2 := sum.Runs[1]
	if len(r2.Stages) != 1 {
		t.Fatalf("run 2 stages = %+v, want 1", r2.Stages)
	}
	st := r2.Stages[0]
	if st.Stage != "generate" || st.Attempts != 2 || st.Outcome != SpanRetried || st.Open {
		t.Fatalf("stage summary = %+v", st)
	}
	if r2.Samples != 1 {
		t.Fatalf("run 2 samples = %d, want 1", r2.Samples)
	}
	// The summary is the -report-json payload: it must marshal.
	if _, err := json.Marshal(sum); err != nil {
		t.Fatalf("summary not marshalable: %v", err)
	}
}
