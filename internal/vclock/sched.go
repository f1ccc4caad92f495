package vclock

import (
	"fmt"
	"time"
)

// Pos is an event's place in the run order: events run by virtual time
// At, and events due at the same nanosecond by Seq, which is drawn from
// the scheduler's counter in schedule order.
type Pos struct {
	At  time.Duration
	Seq uint64
}

// Before reports whether p runs before o.
func (p Pos) Before(o Pos) bool {
	return p.At < o.At || p.At == o.At && p.Seq < o.Seq
}

// event is one scheduled callback.
type event struct {
	Pos
	fn   func()
	slot *Slot // non-nil for a movable event: tracks its heap index
}

// Slot is the handle of a movable event: one that stays in the heap as a
// single entry while its owner moves it earlier or later (a
// retransmission timer whose deadline changes on every ACK). The zero
// Slot is idle; a Slot must not be copied while its event is pending.
type Slot struct {
	idx int // heap index + 1 while pending, 0 when idle
}

// Pending reports whether the slot's event is queued.
func (sl *Slot) Pending() bool { return sl.idx > 0 }

// Scheduler is a single-threaded discrete-event scheduler with a
// virtual clock: the event heap behind emu.Engine. The zero Scheduler
// is ready to use, with the clock at zero. It is not safe for
// concurrent use; all scheduled callbacks run inside its event loop.
//
// The heap is a typed binary heap on (at, seq): pushing and popping an
// event allocates nothing once the backing array has grown to the
// loop's working depth.
type Scheduler struct {
	now    time.Duration
	events []event
	seq    uint64
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Schedule runs fn after delay of virtual time. A negative delay
// panics: the simulation cannot go back in time.
func (s *Scheduler) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("vclock: negative delay %v", delay))
	}
	s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt runs fn at the given absolute virtual time (>= Now).
func (s *Scheduler) ScheduleAt(at time.Duration, fn func()) {
	s.ScheduleSeq(at, s.Reserve(), fn)
}

// Reserve draws the next tie-break sequence number without scheduling
// anything. A component that defers pushing an event (a link whose
// propagation FIFO holds all but its head delivery, a timer re-armed
// lazily) reserves the number when the event is logically scheduled and
// hands it to ScheduleSeq later: the event then runs exactly where it
// would have run had it been pushed at reservation time.
func (s *Scheduler) Reserve() uint64 {
	s.seq++
	return s.seq
}

// ScheduleSeq runs fn at the absolute virtual time at (>= Now) with the
// tie-break position seq, which must come from Reserve and be used at
// most once. Scheduling a number that was never reserved panics.
func (s *Scheduler) ScheduleSeq(at time.Duration, seq uint64, fn func()) {
	s.checkPos(at, seq)
	s.push(event{Pos: Pos{at, seq}, fn: fn})
}

// ScheduleSlot is ScheduleSeq for a movable event: sl tracks the event
// until it runs, and MoveSlot can move it meanwhile. Scheduling through
// a Slot that is already pending panics.
func (s *Scheduler) ScheduleSlot(sl *Slot, at time.Duration, seq uint64, fn func()) {
	s.checkPos(at, seq)
	if sl.Pending() {
		panic("vclock: slot already pending")
	}
	s.push(event{Pos: Pos{at, seq}, fn: fn, slot: sl})
}

// MoveSlot moves sl's pending event to (at, seq), keeping its callback:
// the heap keeps one entry for the event wherever it goes. seq follows
// ScheduleSeq's contract.
func (s *Scheduler) MoveSlot(sl *Slot, at time.Duration, seq uint64) {
	s.checkPos(at, seq)
	if !sl.Pending() {
		panic("vclock: move of an idle slot")
	}
	i := sl.idx - 1
	s.events[i].Pos = Pos{at, seq}
	if !s.up(i) {
		s.down(i)
	}
}

func (s *Scheduler) checkPos(at time.Duration, seq uint64) {
	if at < s.now {
		panic(fmt.Sprintf("vclock: schedule at %v before now %v", at, s.now))
	}
	if seq == 0 || seq > s.seq {
		panic(fmt.Sprintf("vclock: sequence %d was never reserved", seq))
	}
}

func (s *Scheduler) push(e event) {
	s.events = append(s.events, e)
	s.up(len(s.events) - 1)
}

// place stores e in heap index i, keeping a movable event's Slot current.
func (s *Scheduler) place(i int, e event) {
	s.events[i] = e
	if e.slot != nil {
		e.slot.idx = i + 1
	}
}

// up restores the heap order from index i towards the root and reports
// whether the event moved.
func (s *Scheduler) up(i int) bool {
	h := s.events
	e := h[i]
	start := i
	for i > 0 {
		parent := (i - 1) / 2
		if !e.Before(h[parent].Pos) {
			break
		}
		s.place(i, h[parent])
		i = parent
	}
	s.place(i, e)
	return i != start
}

// down restores the heap order from index i towards the leaves.
func (s *Scheduler) down(i int) {
	h := s.events
	n := len(h)
	e := h[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].Before(h[child].Pos) {
			child = r
		}
		if !h[child].Before(e.Pos) {
			break
		}
		s.place(i, h[child])
		i = child
	}
	s.place(i, e)
}

// pop removes and returns the earliest event, zeroing the slot it
// vacates so the heap keeps no callback alive. Callers must know the
// heap is non-empty.
func (s *Scheduler) pop() event {
	h := s.events
	top := h[0]
	if top.slot != nil {
		top.slot.idx = 0
	}
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	s.events = h[:n]
	if n > 0 {
		s.events[0] = last
		s.down(0)
	}
	return top
}

// RunUntil processes events with timestamps <= deadline, then advances
// the clock to the deadline.
func (s *Scheduler) RunUntil(deadline time.Duration) {
	for len(s.events) > 0 && s.events[0].At <= deadline {
		ev := s.pop()
		s.now = ev.At
		ev.fn()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Pending returns the number of queued events.
func (s *Scheduler) Pending() int { return len(s.events) }
