package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// EventKind classifies one traced event on the live path.
type EventKind string

// Event kinds. The set mirrors what the paper's operators watched
// mid-drive: packets moving (or not) through the shaped link, fault
// windows opening and closing, satellite handovers, and measurement
// sessions coming and going.
const (
	// EvEnqueue: a packet entered a relay and was admitted to pacing.
	EvEnqueue EventKind = "enqueue"
	// EvDrop: a packet was dropped (Detail names the cause: loss,
	// droptail, blackout, gate, refused).
	EvDrop EventKind = "drop"
	// EvDeliver: a packet left the relay toward its destination.
	EvDeliver EventKind = "deliver"
	// EvHandover: a satellite reallocation epoch (the 15 s Starlink
	// handover the paper's §5 RTT spikes line up with).
	EvHandover EventKind = "handover"
	// EvFaultOpen / EvFaultClose: a scheduled fault window became
	// active / inactive (Detail names the window kind: blackout,
	// restart, dial-fail).
	EvFaultOpen  EventKind = "fault-open"
	EvFaultClose EventKind = "fault-close"
	// EvSessionStart / EvSessionEnd: a relay session (UDP client flow or
	// TCP connection) began / ended.
	EvSessionStart EventKind = "session-start"
	EvSessionEnd   EventKind = "session-end"
)

// Event is one traced occurrence, keyed by monotonic elapsed time since
// the traced component started — never wall-clock time, so a replayed
// run exports the same spans at the same offsets.
type Event struct {
	// ElapsedUS is the monotonic offset in microseconds.
	ElapsedUS int64 `json:"elapsed_us"`
	// Kind classifies the event.
	Kind EventKind `json:"kind"`
	// Src names the emitting component (e.g. "relay.udp", "faults").
	Src string `json:"src,omitempty"`
	// Dir is the traffic direction ("up" or "down") where it applies.
	Dir string `json:"dir,omitempty"`
	// Size is the payload size in bytes for packet events.
	Size int `json:"size,omitempty"`
	// Detail carries the kind-specific qualifier (drop cause, fault
	// window kind, session peer).
	Detail string `json:"detail,omitempty"`
}

// Elapsed returns the event's offset as a duration.
func (e Event) Elapsed() time.Duration { return time.Duration(e.ElapsedUS) * time.Microsecond }

// Tracer is a bounded in-memory event ring. Recording is a mutex plus a
// slot write; once the ring wraps, the oldest events are overwritten
// (and counted), so a long-lived relay keeps the freshest window of
// activity without growing memory. All methods are nil-safe no-ops.
type Tracer struct {
	mu          sync.Mutex
	buf         []Event
	pinned      []Event
	next        int
	wrapped     bool
	total       int64
	overwritten int64
}

// DefaultTracerCapacity is the ring size when NewTracer gets n <= 0.
const DefaultTracerCapacity = 8192

// NewTracer creates a ring holding the last n events.
func NewTracer(n int) *Tracer {
	if n <= 0 {
		n = DefaultTracerCapacity
	}
	return &Tracer{buf: make([]Event, 0, n)}
}

// Record appends ev to the ring (overwriting the oldest event once
// full). No-op on a nil tracer.
func (t *Tracer) Record(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
	} else {
		t.buf[t.next] = ev
		t.wrapped = true
		t.overwritten++
	}
	t.next = (t.next + 1) % cap(t.buf)
	t.total++
	t.mu.Unlock()
}

// Pin records an event outside the ring: pinned events are never
// overwritten by wrap-around. This is for the small set of structural
// events a trace is useless without — the fault schedule's windows,
// recorded at their (deterministic) scheduled offsets — while the
// high-volume packet events cycle through the ring. No-op on nil.
func (t *Tracer) Pin(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.pinned = append(t.pinned, ev)
	t.total++
	t.mu.Unlock()
}

// PinSpan pins a non-packet event at the given elapsed offset.
func (t *Tracer) PinSpan(elapsed time.Duration, kind EventKind, src, detail string) {
	if t == nil {
		return
	}
	t.Pin(Event{ElapsedUS: int64(elapsed / time.Microsecond), Kind: kind, Src: src, Detail: detail})
}

// Packet records a packet-path event (enqueue/drop/deliver) at the
// given monotonic elapsed offset. No-op on a nil tracer, so the relay
// hot path pays one nil check when tracing is off.
func (t *Tracer) Packet(elapsed time.Duration, kind EventKind, src, dir string, size int, detail string) {
	if t == nil {
		return
	}
	t.Record(Event{
		ElapsedUS: int64(elapsed / time.Microsecond),
		Kind:      kind, Src: src, Dir: dir, Size: size, Detail: detail,
	})
}

// Span records a non-packet event (fault window edge, handover,
// session lifecycle). No-op on a nil tracer.
func (t *Tracer) Span(elapsed time.Duration, kind EventKind, src, detail string) {
	if t == nil {
		return
	}
	t.Record(Event{
		ElapsedUS: int64(elapsed / time.Microsecond),
		Kind:      kind, Src: src, Detail: detail,
	})
}

// Total returns how many events were ever recorded (including ones the
// ring has since overwritten).
func (t *Tracer) Total() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns how many recorded events the ring has overwritten.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.overwritten
}

// Snapshot returns the ring's events sorted by elapsed offset (stable,
// so same-instant events keep insertion order). Sorting by the
// monotonic key — not by arrival in the ring — keeps exports
// deterministic when concurrent goroutines interleave their records.
func (t *Tracer) Snapshot() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Event, len(t.buf), len(t.buf)+len(t.pinned))
	if t.wrapped {
		n := copy(out, t.buf[t.next:])
		copy(out[n:], t.buf[:t.next])
	} else {
		copy(out, t.buf)
	}
	out = append(out, t.pinned...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].ElapsedUS < out[j].ElapsedUS })
	return out
}

// WriteJSONL writes the ring as one JSON object per line, in elapsed
// order — the export format satcell-analyze -events consumes.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range t.Snapshot() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL event trace. Blank lines are skipped; a
// malformed line fails the whole read with its line number, the same
// contract as the trace CSV readers.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(b, &ev); err != nil {
			return nil, fmt.Errorf("events: line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("events: line %d: %w", line+1, err)
	}
	return out, nil
}
