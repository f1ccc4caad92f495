package vclock

import (
	"sync"
	"time"
)

// simEpoch is the fixed base of every SimClock's absolute time: virtual
// instant zero maps to this wall instant, so UnixNano stamps taken on a
// SimClock are plausible but fully deterministic.
var simEpoch = time.Unix(1_700_000_000, 0).UTC()

// SimClock is a virtual Clock driven by a discrete-event Scheduler.
// Time advances only inside Run/RunUntil/Advance, so a session that
// would take minutes of wall time executes as fast as the CPU allows,
// and every timestamp is deterministic run after run.
//
// Two usage modes compose:
//
//   - Event mode: callbacks scheduled with AfterFunc (and everything an
//     emu.Engine sharing the scheduler does) run inline on the event
//     loop, single-threaded, exactly like the emulator.
//   - Cooperative goroutines: code written against blocking Clock calls
//     (Sleep) can run under the sim if its goroutines are registered
//     with Go — the loop advances time only while every registered
//     worker is blocked in a clock wait, which makes the interleaving
//     of sleeps and events deterministic. Workers must not block on
//     anything the clock cannot see (sockets, unregistered channels)
//     while the loop is running, or virtual time will stall (Run waits)
//     — real file descriptors belong to the wall clock.
//
// All methods are safe for concurrent use. When the scheduler is shared
// with an emu.Engine (NewSimOn), drive the loop from one goroutine —
// either Engine.Run or SimClock.Run, not both.
type SimClock struct {
	mu      sync.Mutex
	cond    *sync.Cond
	s       *Scheduler
	workers int // registered cooperative goroutines
	blocked int // of those, currently blocked in a clock wait
}

// NewSim returns a SimClock owning a fresh Scheduler at virtual zero.
func NewSim() *SimClock { return NewSimOn(NewScheduler()) }

// NewSimOn returns a SimClock sharing s — typically an emu.Engine's
// embedded scheduler, so packet deliveries and clock wake-ups interleave
// on one deterministic event loop.
func NewSimOn(s *Scheduler) *SimClock {
	c := &SimClock{s: s}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Scheduler returns the underlying shared scheduler.
func (c *SimClock) Scheduler() *Scheduler { return c.s }

// Elapsed returns the current virtual time as an offset from zero.
func (c *SimClock) Elapsed() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.now
}

// Now returns the fixed epoch plus the virtual elapsed time.
func (c *SimClock) Now() time.Time {
	return simEpoch.Add(c.Elapsed())
}

// Since returns Now().Sub(t).
func (c *SimClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// schedule pushes fn at virtual now+d (clamped to now). Callers hold mu.
func (c *SimClock) scheduleLocked(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	c.s.ScheduleAt(c.s.now+d, fn)
}

// Sleep blocks the calling goroutine for d of virtual time. The loop
// (Run/RunUntil) delivers the wake-up; a goroutine registered with Go
// is accounted as blocked so the loop may advance time past it.
func (c *SimClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	fired := false
	c.blocked++
	c.cond.Broadcast() // the loop may now be quiescent
	c.scheduleLocked(d, func() {
		c.mu.Lock()
		fired = true
		c.blocked-- // runnable again before the loop pops further events
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	for !fired {
		c.cond.Wait()
	}
	c.mu.Unlock()
}

// After returns a channel that receives the virtual time after d.
func (c *SimClock) After(d time.Duration) <-chan time.Time {
	return c.NewTimer(d).C()
}

// AfterFunc schedules fn on the event loop after d of virtual time.
func (c *SimClock) AfterFunc(d time.Duration, fn func()) Timer {
	t := &simTimer{c: c, fn: fn}
	c.mu.Lock()
	t.armLocked(d)
	c.mu.Unlock()
	return t
}

// NewTimer returns a Timer whose channel fires once after d.
func (c *SimClock) NewTimer(d time.Duration) Timer {
	t := &simTimer{c: c, ch: make(chan time.Time, 1)}
	c.mu.Lock()
	t.armLocked(d)
	c.mu.Unlock()
	return t
}

// NewTicker returns a Ticker firing every d of virtual time.
func (c *SimClock) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("vclock: non-positive ticker interval")
	}
	t := &simTicker{c: c, ch: make(chan time.Time, 1), period: d}
	c.mu.Lock()
	t.scheduleLocked()
	c.mu.Unlock()
	return t
}

// Go runs fn as a registered cooperative worker: the event loop only
// advances virtual time while every registered worker is blocked in a
// clock wait, so sleeps in fn interleave deterministically with events.
func (c *SimClock) Go(fn func()) {
	c.mu.Lock()
	c.workers++
	c.mu.Unlock()
	go func() {
		defer func() {
			c.mu.Lock()
			c.workers--
			c.cond.Broadcast()
			c.mu.Unlock()
		}()
		fn()
	}()
}

// Run drives the loop until no events remain (and every registered
// worker is blocked or gone) or Stop is called.
func (c *SimClock) Run() { c.run(-1) }

// RunUntil drives the loop through events at or before deadline, then
// advances the clock to the deadline.
func (c *SimClock) RunUntil(deadline time.Duration) { c.run(deadline) }

// Advance drives the loop d of virtual time past the current instant —
// the test idiom for stepping a component without a background loop.
func (c *SimClock) Advance(d time.Duration) {
	c.run(c.Elapsed() + d)
}

// Stop halts a running loop after the current event returns.
func (c *SimClock) Stop() {
	c.mu.Lock()
	c.s.stopped = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

func (c *SimClock) run(deadline time.Duration) {
	c.mu.Lock()
	c.s.stopped = false
	for {
		// Quiesce: never advance time while a registered worker is
		// runnable — it may be about to schedule something earlier.
		for c.workers > c.blocked && !c.s.stopped {
			c.cond.Wait()
		}
		if c.s.stopped || len(c.s.events) == 0 {
			break
		}
		if deadline >= 0 && c.s.events[0].At > deadline {
			break
		}
		ev := c.s.pop()
		c.s.now = ev.At
		c.mu.Unlock()
		ev.fn()
		c.mu.Lock()
	}
	if deadline >= 0 && !c.s.stopped && c.s.now < deadline {
		c.s.now = deadline
	}
	c.mu.Unlock()
}

// simTimer is a one-shot virtual timer. Cancellation is generation-
// based: the scheduled closure fires only if its generation is still
// the timer's armed generation (the heap has no random deletion).
type simTimer struct {
	c     *SimClock
	ch    chan time.Time // nil for AfterFunc timers
	fn    func()
	gen   int
	armed bool
}

// armLocked schedules the firing closure; callers hold c.mu.
func (t *simTimer) armLocked(d time.Duration) {
	t.armed = true
	t.gen++
	gen := t.gen
	t.c.scheduleLocked(d, func() { t.fire(gen) })
}

func (t *simTimer) fire(gen int) {
	t.c.mu.Lock()
	live := t.armed && t.gen == gen
	if live {
		t.armed = false
	}
	now := simEpoch.Add(t.c.s.now)
	t.c.mu.Unlock()
	if !live {
		return
	}
	if t.fn != nil {
		t.fn()
		return
	}
	t.ch <- now // cap 1, fires once per arm: never blocks
}

func (t *simTimer) C() <-chan time.Time { return t.ch }

func (t *simTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	was := t.armed
	t.armed = false
	t.gen++
	return was
}

func (t *simTimer) Reset(d time.Duration) bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	was := t.armed
	t.armLocked(d)
	return was
}

// simTicker fires every period; a full channel drops the tick, exactly
// like time.Ticker.
type simTicker struct {
	c       *SimClock
	ch      chan time.Time
	period  time.Duration
	stopped bool
}

func (t *simTicker) scheduleLocked() {
	t.c.scheduleLocked(t.period, t.tick)
}

func (t *simTicker) tick() {
	t.c.mu.Lock()
	if t.stopped {
		t.c.mu.Unlock()
		return
	}
	now := simEpoch.Add(t.c.s.now)
	t.scheduleLocked()
	t.c.mu.Unlock()
	select {
	case t.ch <- now:
	default: // receiver lagging: drop the tick, like time.Ticker
	}
}

func (t *simTicker) C() <-chan time.Time { return t.ch }

func (t *simTicker) Stop() {
	t.c.mu.Lock()
	t.stopped = true
	t.c.mu.Unlock()
}
