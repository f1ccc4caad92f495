package faults

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"satcell/internal/obs"
)

// Stats counts what an Injector did to live traffic.
type Stats struct {
	BlackoutDrops int64 // datagrams swallowed by blackout windows
	Corrupted     int64
	Truncated     int64
	DialsRefused  int64
}

// Injector executes a Schedule against wall-clock traffic. It
// implements netem.FaultGate: the relays consult it per datagram and
// per dial. All methods are safe for concurrent use and nil-tolerant,
// so a nil *Injector means "no faults".
//
// The schedule itself is deterministic; the injector's per-datagram
// corruption/truncation draws come from a RNG derived from the
// schedule seed, so a fixed packet sequence sees a fixed fault
// sequence.
type Injector struct {
	sched Schedule
	start time.Time

	mu  sync.Mutex
	rng *rand.Rand

	blackoutDrops atomic.Int64
	corrupted     atomic.Int64
	truncated     atomic.Int64
	dialsRefused  atomic.Int64
}

// NewInjector starts a schedule's wall clock now.
func NewInjector(s Schedule) *Injector {
	return &Injector{
		sched: s,
		start: time.Now(),
		rng:   rand.New(rand.NewSource(s.Seed*0x9E3779B9 + 1)),
	}
}

// Schedule returns the injector's script.
func (in *Injector) Schedule() Schedule { return in.sched }

// Elapsed returns the time since the injector started.
func (in *Injector) Elapsed() time.Duration { return time.Since(in.start) }

// Stats returns a snapshot of the fault counters.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return Stats{
		BlackoutDrops: in.blackoutDrops.Load(),
		Corrupted:     in.corrupted.Load(),
		Truncated:     in.truncated.Load(),
		DialsRefused:  in.dialsRefused.Load(),
	}
}

// Instrument exposes the injector's live fault counters on reg
// (injections by kind, plus which window kinds are active right now,
// sampled at scrape time) and pins the schedule's fault windows into tr
// as fault-open/fault-close events at their scheduled offsets. The
// windows are deterministic — known before any traffic flows — so they
// are pinned up front rather than detected from the packet path: an
// exported trace always carries the full scenario script, and the
// timeline renderer can cross-check observed drops against it. Either
// argument may be nil; a nil injector is a no-op.
func (in *Injector) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	if in == nil {
		return
	}
	reg.RegisterFunc("faults.blackout_drops", func() float64 { return float64(in.blackoutDrops.Load()) })
	reg.RegisterFunc("faults.corrupted", func() float64 { return float64(in.corrupted.Load()) })
	reg.RegisterFunc("faults.truncated", func() float64 { return float64(in.truncated.Load()) })
	reg.RegisterFunc("faults.dials_refused", func() float64 { return float64(in.dialsRefused.Load()) })
	reg.RegisterFunc("faults.blackout_active", func() float64 {
		if in.sched.BlackoutAt(in.Elapsed()) {
			return 1
		}
		return 0
	})
	reg.RegisterFunc("faults.dialfail_active", func() float64 {
		if in.sched.DialFailAt(in.Elapsed()) {
			return 1
		}
		return 0
	})
	// A fixed kind order keeps coincident windows of different kinds in
	// the same order in every export (the tracer's sort is stable).
	for _, k := range []struct {
		kind    string
		windows []Window
	}{
		{"blackout", in.sched.Blackouts},
		{"restart", in.sched.Restarts},
		{"dial-fail", in.sched.DialFails},
	} {
		for _, w := range k.windows {
			tr.PinSpan(w.Start, obs.EvFaultOpen, "faults", k.kind)
			tr.PinSpan(w.End(), obs.EvFaultClose, "faults", k.kind)
		}
	}
}

// LinkDown reports whether the link is blacked out at the given elapsed
// time, counting a dropped datagram when it is.
func (in *Injector) LinkDown(elapsed time.Duration) bool {
	if in == nil {
		return false
	}
	if in.sched.BlackoutAt(elapsed) {
		in.blackoutDrops.Add(1)
		return true
	}
	return false
}

// DialFails reports whether a new connection/session attempt at the
// given elapsed time must be refused.
func (in *Injector) DialFails(elapsed time.Duration) bool {
	if in == nil {
		return false
	}
	if in.sched.DialFailAt(elapsed) {
		in.dialsRefused.Add(1)
		return true
	}
	return false
}

// Datagram applies the per-packet faults to pkt (in place) and returns
// the possibly shortened payload plus whether the datagram must be
// dropped entirely. The caller must own pkt (the relays pass their
// per-packet copy).
func (in *Injector) Datagram(elapsed time.Duration, pkt []byte) ([]byte, bool) {
	if in == nil || (in.sched.CorruptProb <= 0 && in.sched.TruncateProb <= 0) || len(pkt) == 0 {
		return pkt, false
	}
	in.mu.Lock()
	corrupt := in.rng.Float64() < in.sched.CorruptProb
	truncate := in.rng.Float64() < in.sched.TruncateProb
	var off, cut int
	if corrupt {
		off = in.rng.Intn(len(pkt))
	}
	if truncate {
		cut = in.rng.Intn(len(pkt))
	}
	in.mu.Unlock()
	if corrupt {
		pkt[off] ^= 0xFF
		in.corrupted.Add(1)
	}
	if truncate {
		pkt = pkt[:cut]
		in.truncated.Add(1)
		if cut == 0 {
			return pkt, true // truncated to nothing: the wire ate it
		}
	}
	return pkt, false
}
