package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"
)

// This file is the flight recorder: hierarchical spans (campaign →
// stage → retry-attempt → shard/drive-unit) on the monotonic elapsed
// clock, persisted as JSONL records through a TelemetrySink — in
// practice the run directory's append-only fsynced TELEMETRY journal
// (store.Journal satisfies the interface). It is the only timeline of
// the campaign and streaming paths: it answers "what did the run do"
// after the process is gone, kill -9 included. The in-memory event ring
// covers the disjoint live packet path (relays, fault injector, iperf),
// which keeps no journal.
//
// Spans live at shard/stage granularity, never per-packet: beginning a
// span costs one fsynced append, which is noise next to loading or
// sampling a shard but would crush the ~93 ns packet path. The per-
// packet relay accounting therefore never touches the recorder (the
// BenchmarkSpanStage guard proves it stays allocation-free with a
// recorder attached).
//
// Everything is nil-safe, like the rest of the package: a nil
// *FlightRecorder hands out nil *Spans whose methods are no-ops, so
// instrumented code carries no conditionals.

// SpanKind classifies one level of the span hierarchy.
type SpanKind string

const (
	// SpanCampaign is the root: one per supervised process run.
	SpanCampaign SpanKind = "campaign"
	// SpanStage covers one pipeline stage (plan/generate/verify/...).
	SpanStage SpanKind = "stage"
	// SpanAttempt covers one supervised attempt of a stage.
	SpanAttempt SpanKind = "attempt"
	// SpanShard covers one streamed analysis shard.
	SpanShard SpanKind = "shard"
	// SpanUnit covers one (drive, network) generation unit.
	SpanUnit SpanKind = "unit"
)

// Outcome tags how a span ended.
type Outcome string

const (
	// SpanOK: the work completed first try.
	SpanOK Outcome = "ok"
	// SpanRetried: the work completed, but needed at least one retry.
	SpanRetried Outcome = "retried"
	// SpanQuarantined: the work was dropped after exhausting its budget.
	SpanQuarantined Outcome = "quarantined"
	// SpanStalled: the watchdog declared the span wedged and cancelled it.
	SpanStalled Outcome = "stalled"
	// SpanFailed: the work errored without a more specific verdict.
	SpanFailed Outcome = "failed"
	// SpanCancelled: the run was cancelled from outside (SIGINT/SIGTERM).
	SpanCancelled Outcome = "cancelled"
)

// Telemetry record types: the "t" discriminator of each journal line.
const (
	// RecRun marks a process (re)entering the journal; its Run number
	// groups every later record until the next RecRun.
	RecRun = "run"
	// RecSpanStart / RecSpanEnd bracket one span. A start without an end
	// is the crash artifact replay tolerates: the work was in flight when
	// the process died.
	RecSpanStart = "span-start"
	RecSpanEnd   = "span-end"
	// RecMetrics is one sampler snapshot of the metrics registry.
	RecMetrics = "metrics"
	// RecPostmortem points at a captured post-mortem directory.
	RecPostmortem = "postmortem"
)

// TelemetryRecord is the JSONL wire format of every journal line after
// the store's meta line. Fields are a union across record types;
// omitempty keeps each line to its type's payload.
type TelemetryRecord struct {
	T string `json:"t"`
	// Run payload (RecRun); also stamped on no other record — the run a
	// record belongs to is positional, everything after a RecRun is its.
	Run int `json:"run,omitempty"`
	// Span payload (RecSpanStart/RecSpanEnd).
	ID      int64    `json:"id,omitempty"`
	Parent  int64    `json:"parent,omitempty"`
	Kind    SpanKind `json:"kind,omitempty"`
	Name    string   `json:"name,omitempty"`
	Outcome Outcome  `json:"outcome,omitempty"`
	Detail  string   `json:"detail,omitempty"`
	// ElapsedUS is the monotonic offset since the recorder started —
	// the same clock the event ring uses.
	ElapsedUS int64 `json:"elapsed_us"`
	// Metrics payload (RecMetrics).
	Vars map[string]any `json:"vars,omitempty"`
	// Postmortem payload (RecPostmortem).
	Stage   string `json:"stage,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Dir     string `json:"dir,omitempty"`
	Reason  string `json:"reason,omitempty"`
}

// TelemetrySink is where the recorder persists records. store.Journal
// satisfies it (append-only, fsync per record); tests use in-memory
// sinks. Append errors never propagate to the instrumented code path —
// telemetry observes the run, it must not be able to fail it — but the
// first error is kept for Err().
type TelemetrySink interface {
	Append(v any) error
}

// FlightRecorder assigns span identities and appends telemetry records
// on the monotonic clock. Safe for concurrent use: generation units and
// analysis shards record from worker pools.
type FlightRecorder struct {
	mu     sync.Mutex
	sink   TelemetrySink
	start  time.Time
	nextID int64
	err    error
}

// NewFlightRecorder starts recording into sink as run number run (1 for
// a fresh journal, 1+count of prior runs on a resume). It immediately
// appends the RecRun marker. A nil sink returns a nil recorder, whose
// spans are all no-ops.
func NewFlightRecorder(sink TelemetrySink, run int) *FlightRecorder {
	if sink == nil {
		return nil
	}
	if run <= 0 {
		run = 1
	}
	r := &FlightRecorder{sink: sink, start: time.Now()}
	r.append(&TelemetryRecord{T: RecRun, Run: run})
	return r
}

// Elapsed returns the monotonic offset since recording started.
func (r *FlightRecorder) Elapsed() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.start)
}

// Err returns the first append error, nil while the journal is healthy.
func (r *FlightRecorder) Err() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// append persists one record; errors are sticky but swallowed.
func (r *FlightRecorder) append(rec *TelemetryRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.sink.Append(rec); err != nil && r.err == nil {
		r.err = err
	}
}

// Begin opens a root span (no parent). Use Span.Child below it.
func (r *FlightRecorder) Begin(kind SpanKind, name string) *Span {
	return r.begin(0, kind, name)
}

func (r *FlightRecorder) begin(parent int64, kind SpanKind, name string) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	r.mu.Unlock()
	el := int64(r.Elapsed() / time.Microsecond)
	r.append(&TelemetryRecord{
		T: RecSpanStart, ID: id, Parent: parent, Kind: kind, Name: name, ElapsedUS: el,
	})
	return &Span{r: r, id: id, kind: kind, name: name, startUS: el}
}

// RecordMetrics appends one sampler snapshot of the metrics registry.
func (r *FlightRecorder) RecordMetrics(vars map[string]any) {
	if r == nil {
		return
	}
	r.append(&TelemetryRecord{
		T: RecMetrics, ElapsedUS: int64(r.Elapsed() / time.Microsecond), Vars: vars,
	})
}

// RecordPostmortem appends a pointer to a captured post-mortem dir, so
// the journal replay can line the capture up with the span that caused
// it.
func (r *FlightRecorder) RecordPostmortem(stage string, attempt int, dir, reason string) {
	if r == nil {
		return
	}
	r.append(&TelemetryRecord{
		T: RecPostmortem, ElapsedUS: int64(r.Elapsed() / time.Microsecond),
		Stage: stage, Attempt: attempt, Dir: dir, Reason: reason,
	})
}

// Span is one open span. End it exactly once; End is idempotent and
// nil-safe so error paths can End defensively.
type Span struct {
	r       *FlightRecorder
	id      int64
	kind    SpanKind
	name    string
	startUS int64

	mu    sync.Mutex
	ended bool
}

// Child opens a span below s. On a nil span it returns nil, so
// instrumentation composes without conditionals.
func (s *Span) Child(kind SpanKind, name string) *Span {
	if s == nil {
		return nil
	}
	return s.r.begin(s.id, kind, name)
}

// End closes the span with its outcome. Only the first End appends; a
// span the crash left open simply has no end record, which replay
// reports as an open span.
func (s *Span) End(outcome Outcome, detail string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.mu.Unlock()
	s.r.append(&TelemetryRecord{
		T: RecSpanEnd, ID: s.id, Outcome: outcome, Detail: detail,
		ElapsedUS: int64(s.r.Elapsed() / time.Microsecond),
	})
}

// --- replay ---

// ReplaySpan is one reconstructed span: the start record merged with
// its end record (if the run lived long enough to write one).
type ReplaySpan struct {
	Run     int      `json:"run"`
	ID      int64    `json:"id"`
	Parent  int64    `json:"parent,omitempty"`
	Kind    SpanKind `json:"kind"`
	Name    string   `json:"name"`
	StartUS int64    `json:"start_us"`
	EndUS   int64    `json:"end_us,omitempty"`
	Outcome Outcome  `json:"outcome,omitempty"`
	Detail  string   `json:"detail,omitempty"`
	// Closed reports whether an end record was replayed; an open span is
	// the signature of a crash (or kill -9) with the work in flight.
	Closed bool `json:"closed"`

	Children []*ReplaySpan `json:"children,omitempty"`
}

// Duration returns the span's recorded duration (to the replay horizon
// for open spans, passed by the caller as the run's last offset).
func (s *ReplaySpan) Duration(horizonUS int64) time.Duration {
	end := s.EndUS
	if !s.Closed {
		end = horizonUS
	}
	if end < s.StartUS {
		end = s.StartUS
	}
	return time.Duration(end-s.StartUS) * time.Microsecond
}

// MetricsSample is one replayed sampler snapshot.
type MetricsSample struct {
	Run       int            `json:"run"`
	ElapsedUS int64          `json:"elapsed_us"`
	Vars      map[string]any `json:"vars"`
}

// PostmortemRef is one replayed post-mortem pointer.
type PostmortemRef struct {
	Run       int    `json:"run"`
	ElapsedUS int64  `json:"elapsed_us"`
	Stage     string `json:"stage"`
	Attempt   int    `json:"attempt"`
	Dir       string `json:"dir"`
	Reason    string `json:"reason"`
}

// RunLog is one process run's reconstructed telemetry.
type RunLog struct {
	Run int `json:"run"`
	// Roots holds the run's root spans (parent 0) with children nested.
	Roots []*ReplaySpan `json:"roots,omitempty"`
	// Spans and Open count the run's spans and how many never closed.
	Spans int `json:"spans"`
	Open  int `json:"open"`
	// LastUS is the run's replay horizon: the largest elapsed offset any
	// of its records carries.
	LastUS      int64           `json:"last_us"`
	Samples     []MetricsSample `json:"-"`
	Postmortems []PostmortemRef `json:"postmortems,omitempty"`
}

// FlightLog is a fully replayed TELEMETRY journal: every run the
// journal accumulated, resumes included, in order.
type FlightLog struct {
	Runs []*RunLog `json:"runs"`
}

// Spans returns the total span count across runs.
func (l *FlightLog) Spans() int {
	n := 0
	for _, r := range l.Runs {
		n += r.Spans
	}
	return n
}

// Open returns the total count of spans no run ever closed.
func (l *FlightLog) Open() int {
	n := 0
	for _, r := range l.Runs {
		n += r.Open
	}
	return n
}

// Walk visits every span of every run, parents before children.
func (l *FlightLog) Walk(fn func(*ReplaySpan)) {
	var rec func(*ReplaySpan)
	rec = func(s *ReplaySpan) {
		fn(s)
		for _, c := range s.Children {
			rec(c)
		}
	}
	for _, r := range l.Runs {
		for _, root := range r.Roots {
			rec(root)
		}
	}
}

// ReplayTelemetry reconstructs the span trees, metric samples and
// post-mortem pointers from a journal's raw entries (the store's
// journal replay already dropped any torn tail). It validates the
// stream's causal consistency: offsets are non-negative, a span may end
// only after it started and never be its own parent, ids are unique
// within a run, and every end record carries an outcome.
// Spans with no end record are tolerated — they are the crash evidence
// — and reported per run as Open.
func ReplayTelemetry(entries []json.RawMessage) (*FlightLog, error) {
	log := &FlightLog{}
	var cur *RunLog
	spans := map[int64]*ReplaySpan{} // current run's spans by id
	ensureRun := func() *RunLog {
		if cur == nil {
			// Records before any run marker: a journal from an older
			// writer; adopt them into an implicit run 1.
			cur = &RunLog{Run: 1}
			log.Runs = append(log.Runs, cur)
		}
		return cur
	}
	for i, raw := range entries {
		var rec TelemetryRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("telemetry: entry %d: %w", i+1, err)
		}
		if rec.ElapsedUS < 0 {
			return nil, fmt.Errorf("telemetry: entry %d: negative elapsed offset %dus", i+1, rec.ElapsedUS)
		}
		if cur != nil && rec.ElapsedUS > cur.LastUS {
			cur.LastUS = rec.ElapsedUS
		}
		switch rec.T {
		case RecRun:
			cur = &RunLog{Run: rec.Run}
			if cur.Run <= 0 {
				cur.Run = len(log.Runs) + 1
			}
			log.Runs = append(log.Runs, cur)
			spans = map[int64]*ReplaySpan{}
		case RecSpanStart:
			r := ensureRun()
			if rec.ID == 0 {
				return nil, fmt.Errorf("telemetry: entry %d: span-start without id", i+1)
			}
			if spans[rec.ID] != nil {
				return nil, fmt.Errorf("telemetry: entry %d: span %d started twice in run %d", i+1, rec.ID, r.Run)
			}
			sp := &ReplaySpan{
				Run: r.Run, ID: rec.ID, Parent: rec.Parent,
				Kind: rec.Kind, Name: rec.Name, StartUS: rec.ElapsedUS,
			}
			if rec.Parent == 0 {
				r.Roots = append(r.Roots, sp)
			} else {
				// Looked up before sp is registered, so a span naming
				// itself as parent is rejected, not kept as an orphan
				// that no walk from the roots reaches.
				parent := spans[rec.Parent]
				if parent == nil {
					// The journal is append-ordered and fsynced: a child's
					// start cannot be durable before its parent's.
					return nil, fmt.Errorf("telemetry: entry %d: span %d names unknown parent %d", i+1, rec.ID, rec.Parent)
				}
				parent.Children = append(parent.Children, sp)
			}
			spans[rec.ID] = sp
			r.Spans++
			r.Open++
		case RecSpanEnd:
			r := ensureRun()
			sp := spans[rec.ID]
			if sp == nil {
				return nil, fmt.Errorf("telemetry: entry %d: span-end for unknown span %d in run %d", i+1, rec.ID, r.Run)
			}
			if sp.Closed {
				return nil, fmt.Errorf("telemetry: entry %d: span %d ended twice", i+1, rec.ID)
			}
			if rec.Outcome == "" {
				return nil, fmt.Errorf("telemetry: entry %d: span %d closed without an outcome", i+1, rec.ID)
			}
			if rec.ElapsedUS < sp.StartUS {
				return nil, fmt.Errorf("telemetry: entry %d: span %d ends at %dus before its start %dus", i+1, rec.ID, rec.ElapsedUS, sp.StartUS)
			}
			sp.EndUS, sp.Outcome, sp.Detail, sp.Closed = rec.ElapsedUS, rec.Outcome, rec.Detail, true
			r.Open--
		case RecMetrics:
			r := ensureRun()
			r.Samples = append(r.Samples, MetricsSample{Run: r.Run, ElapsedUS: rec.ElapsedUS, Vars: rec.Vars})
		case RecPostmortem:
			r := ensureRun()
			r.Postmortems = append(r.Postmortems, PostmortemRef{
				Run: r.Run, ElapsedUS: rec.ElapsedUS,
				Stage: rec.Stage, Attempt: rec.Attempt, Dir: rec.Dir, Reason: rec.Reason,
			})
		default:
			return nil, fmt.Errorf("telemetry: entry %d: unknown record type %q", i+1, rec.T)
		}
	}
	// Children arrive in append order, which is also start order on the
	// monotonic clock; sort defensively so rendering never depends on it.
	log.Walk(func(s *ReplaySpan) {
		sort.SliceStable(s.Children, func(i, j int) bool {
			if s.Children[i].StartUS != s.Children[j].StartUS {
				return s.Children[i].StartUS < s.Children[j].StartUS
			}
			return s.Children[i].ID < s.Children[j].ID
		})
	})
	return log, nil
}
