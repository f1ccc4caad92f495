// Package vclock holds satcell's virtual-time machinery. Virtual time
// means the discrete-event Scheduler: internal/emu embeds it, and
// vsession replays whole faulted TCP/MPTCP sessions on it, so a run
// that would take minutes of wall time executes as fast as the CPU
// allows and is deterministic to the timestamp.
//
// The live path (netem relays, iperf, udpping, the campaign runner, the
// flight recorder) moves real bytes over real sockets and calls the time
// package directly: a socket cannot be driven by a virtual clock. Only
// two live-path pieces keep a Clock, so their tests can substitute a
// virtual one (testutil.SimClock, over its own Scheduler) and assert
// exact instants instead of wall-clock tolerances: netem's pacer and
// faults.Supervisor. Shipped code passes Wall, which delegates straight
// to the time package.
package vclock

import "time"

// Clock is the subset of the time package the pacer and the fault
// supervisor use.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// AfterFunc schedules fn to run after d; the returned Timer can
	// cancel or re-arm it.
	AfterFunc(d time.Duration, fn func()) Timer
}

// Timer is the part of *time.Timer an AfterFunc caller uses, behind an
// interface so virtual timers can stand in for real ones.
type Timer interface {
	// Stop cancels the timer; it reports whether the timer was still
	// armed (same contract as time.Timer.Stop).
	Stop() bool
	// Reset re-arms the timer for d, reporting whether it was armed.
	Reset(d time.Duration) bool
}
