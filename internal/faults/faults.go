// Package faults is the deterministic fault-injection subsystem for
// the live-measurement path. The paper's field campaign (§3.3) is
// defined by failure — Starlink drops out at 15 s reallocation epochs,
// in tunnels and behind obstructions — and related measurement studies
// (Mohan et al.; Laniewski et al.) report sub-second to multi-second
// outages as the norm. This package turns those conditions into a
// seeded, replayable script: link blackout windows, component
// kill-and-restart windows, dial-failure windows, and per-datagram
// corruption/truncation probabilities.
//
// A Schedule is a pure value derived entirely from its spec string (see
// ParseSpec) and seed: the same pair always yields a bit-identical
// schedule (see Digest), so any outage scenario can be replayed
// exactly. Two layers act on a schedule's windows:
//
//   - the relays' datagram path via Injector, which netem consults per
//     packet (blackout drops, corruption, truncation, dial refusal);
//   - vsession's virtual-time sessions, which ask BlackoutAt and
//     ComponentDownAt directly and replay those windows as outages.
//
// Wall-clock components (relays, servers) are killed and restored by
// Supervise, which executes the schedule's restart windows in real
// time.
package faults

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// Window is one fault interval: the fault is active in the half-open
// range [Start, Start+Dur).
type Window struct {
	Start time.Duration
	Dur   time.Duration
}

// End returns the first instant after the window.
func (w Window) End() time.Duration { return w.Start + w.Dur }

// Contains reports whether t falls inside the window.
func (w Window) Contains(t time.Duration) bool { return t >= w.Start && t < w.End() }

// Schedule is one deterministic fault script. The zero value is a
// healthy world: no windows, no corruption.
type Schedule struct {
	// Seed derives every random decision tied to the schedule (window
	// placement of auto= entries, the Injector's per-datagram draws).
	Seed int64
	// Horizon is the scenario length the windows were drawn over; it
	// bounds density computations and is informational otherwise.
	Horizon time.Duration

	// Blackouts are link outage windows: zero capacity, total datagram
	// loss. Both directions of a link go down together, the way a
	// Starlink reallocation gap or tunnel kills the whole dish.
	Blackouts []Window
	// Restarts are component kill windows: the supervised component is
	// killed at Start and restored at End.
	Restarts []Window
	// DialFails are windows during which new connections/sessions are
	// refused even though the link is otherwise up.
	DialFails []Window

	// CorruptProb is the per-datagram probability of payload corruption.
	CorruptProb float64
	// TruncateProb is the per-datagram probability of truncation.
	TruncateProb float64
}

// activeAt reports whether any window in ws contains t. Windows are
// kept sorted by Start; len(ws) is small, so a linear scan is fine.
func activeAt(ws []Window, t time.Duration) bool {
	for _, w := range ws {
		if w.Start > t {
			return false
		}
		if w.Contains(t) {
			return true
		}
	}
	return false
}

// BlackoutAt reports whether the link is blacked out at elapsed time t.
func (s *Schedule) BlackoutAt(t time.Duration) bool { return activeAt(s.Blackouts, t) }

// DialFailAt reports whether dials fail at elapsed time t (restart
// windows also refuse dials: the component is down).
func (s *Schedule) DialFailAt(t time.Duration) bool {
	return activeAt(s.DialFails, t) || activeAt(s.Restarts, t)
}

// ComponentDownAt reports whether a restart window has the component
// down at elapsed time t. Virtual sessions use it to approximate a
// restart as link downtime (a dead relay forwards nothing), since there
// is no process to kill inside the emulator.
func (s *Schedule) ComponentDownAt(t time.Duration) bool {
	return activeAt(s.Restarts, t)
}

// BlackoutFraction returns the share of the horizon spent in blackout —
// the scenario's outage density. Windows are clipped to [0, Horizon)
// and overlapping ones merged, so an instant two windows cover counts
// once.
func (s *Schedule) BlackoutFraction() float64 {
	if s.Horizon <= 0 {
		return 0
	}
	ws := append([]Window(nil), s.Blackouts...)
	sort.Slice(ws, func(i, j int) bool { return ws[i].Start < ws[j].Start })
	var down, reached time.Duration // reached: end of the dark time counted so far
	for _, w := range ws {
		from, to := max(w.Start, reached), min(w.End(), s.Horizon)
		if to > from {
			down += to - from
			reached = to
		}
	}
	return float64(down) / float64(s.Horizon)
}

// Digest hashes every field of the schedule; two schedules share a
// digest iff they are bit-identical. This is the replayability gate:
// ParseSpec must produce the same digest for the same inputs, run after
// run.
func (s *Schedule) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "seed=%d horizon=%v corrupt=%v truncate=%v\n",
		s.Seed, s.Horizon, s.CorruptProb, s.TruncateProb)
	for _, w := range s.Blackouts {
		fmt.Fprintf(h, "blackout %v %v\n", w.Start, w.Dur)
	}
	for _, w := range s.Restarts {
		fmt.Fprintf(h, "restart %v %v\n", w.Start, w.Dur)
	}
	for _, w := range s.DialFails {
		fmt.Fprintf(h, "dialfail %v %v\n", w.Start, w.Dur)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// String summarises the schedule for logs.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "faults(seed=%d", s.Seed)
	if s.Horizon > 0 {
		fmt.Fprintf(&b, ", horizon=%v", s.Horizon)
	}
	if n := len(s.Blackouts); n > 0 {
		fmt.Fprintf(&b, ", %d blackouts (%.1f%% down)", n, 100*s.BlackoutFraction())
	}
	if n := len(s.Restarts); n > 0 {
		fmt.Fprintf(&b, ", %d restarts", n)
	}
	if n := len(s.DialFails); n > 0 {
		fmt.Fprintf(&b, ", %d dial-fail windows", n)
	}
	if s.CorruptProb > 0 {
		fmt.Fprintf(&b, ", corrupt=%.3g", s.CorruptProb)
	}
	if s.TruncateProb > 0 {
		fmt.Fprintf(&b, ", truncate=%.3g", s.TruncateProb)
	}
	b.WriteString(")")
	return b.String()
}

// sortWindows orders windows by start time (stable for equal starts).
func sortWindows(ws []Window) {
	sort.SliceStable(ws, func(i, j int) bool { return ws[i].Start < ws[j].Start })
}

// Blackout placement of an auto= spec entry. The durations are
// exponential around blackoutMean, the sub-second-to-seconds band the
// measurement studies report, clamped to [minBlackout, 4×blackoutMean].
const (
	blackoutMean = 800 * time.Millisecond
	minBlackout  = 50 * time.Millisecond
)

// autoBlackouts draws n blackout windows from seed: each starts
// uniformly over [0, horizon), and the draws alternate start then
// duration, so the windows are bit-identical per seed. They come in
// draw order; ParseSpec sorts them.
func autoBlackouts(seed int64, n int, horizon time.Duration) []Window {
	rng := rand.New(rand.NewSource(seed))
	ws := make([]Window, 0, n)
	for i := 0; i < n; i++ {
		start := time.Duration(rng.Int63n(int64(horizon)))
		d := time.Duration(rng.ExpFloat64() * float64(blackoutMean))
		d = min(max(d, minBlackout), 4*blackoutMean)
		ws = append(ws, Window{Start: start, Dur: d})
	}
	return ws
}
