package vclock

import "time"

// simEpoch is the fixed base of every SimClock's absolute time: virtual
// instant zero maps to this wall instant, so UnixNano stamps taken on a
// SimClock are plausible but fully deterministic.
var simEpoch = time.Unix(1_700_000_000, 0).UTC()

// SimClock is a virtual Clock driven by a discrete-event Scheduler.
// Time advances only inside RunUntil, and callbacks
// scheduled with AfterFunc run inline on the event loop, exactly like
// the emulator's events. Like the Scheduler, a SimClock is not safe for
// concurrent use: drive it, and everything scheduled on it, from one
// goroutine.
type SimClock struct {
	s *Scheduler
}

// NewSim returns a SimClock owning a fresh Scheduler at virtual zero.
func NewSim() *SimClock { return &SimClock{s: NewScheduler()} }

// Elapsed returns the current virtual time as an offset from zero.
func (c *SimClock) Elapsed() time.Duration { return c.s.Now() }

// Now returns the fixed epoch plus the virtual elapsed time.
func (c *SimClock) Now() time.Time { return simEpoch.Add(c.s.Now()) }

// AfterFunc schedules fn on the event loop after d of virtual time.
func (c *SimClock) AfterFunc(d time.Duration, fn func()) Timer {
	t := &simTimer{c: c, fn: fn}
	t.arm(d)
	return t
}

// RunUntil drives the loop through events at or before deadline, then
// advances the clock to the deadline.
func (c *SimClock) RunUntil(deadline time.Duration) { c.s.RunUntil(deadline) }

// simTimer is a one-shot virtual timer. Cancellation is generation-
// based: the scheduled closure fires only if its generation is still
// the timer's armed generation (the heap has no random deletion).
type simTimer struct {
	c     *SimClock
	fn    func()
	gen   int
	armed bool
}

// arm schedules the firing closure d from now (clamped to now).
func (t *simTimer) arm(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.armed = true
	t.gen++
	gen := t.gen
	t.c.s.Schedule(d, func() { t.fire(gen) })
}

func (t *simTimer) fire(gen int) {
	if !t.armed || t.gen != gen {
		return
	}
	t.armed = false
	t.fn()
}

func (t *simTimer) Stop() bool {
	was := t.armed
	t.armed = false
	return was
}

func (t *simTimer) Reset(d time.Duration) bool {
	was := t.armed
	t.arm(d)
	return was
}
