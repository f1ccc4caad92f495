package faults

import (
	"sync"
	"sync/atomic"
	"time"

	"satcell/internal/vclock"
)

// Supervisor executes a schedule's restart windows against one
// wall-clock component: at each window's start it calls kill, at the
// window's end it calls restore. It is how chaos scenarios cycle a
// relay or measurement server the way a field deployment loses its
// gateway and gets it back.
type Supervisor struct {
	clk     vclock.Clock
	begin   time.Time
	windows []Window // sorted, disjoint
	kill    func()
	restore func()
	// stopped is set by Stop before it takes mu, so an overdue edge
	// queued on mu behind a running one cannot win the lock first.
	stopped atomic.Bool

	// mu is held across every kill and restore call, so edges run one
	// at a time and Stop waits for an edge that is already running.
	mu     sync.Mutex
	timer  vclock.Timer // the one pending edge, re-armed by each edge
	next   int          // next edge: 2i kills window i, 2i+1 restores it
	kills  int
	resets int
}

// Supervise starts executing the windows. They are sorted by start and
// overlapping (or touching) windows are merged into their union, so the
// component is down exactly where Schedule.ComponentDownAt says it is.
// kill and restore run on timer goroutines, one at a time under the
// supervisor's lock, so they may touch non-thread-safe component state
// as long as nothing else does; they must not call the Supervisor.
func Supervise(windows []Window, kill, restore func()) *Supervisor {
	return supervise(windows, kill, restore, vclock.Wall)
}

// supervise is Supervise on an explicit clock; the tests pass a
// vclock.SimClock so every edge lands on its exact virtual instant.
func supervise(windows []Window, kill, restore func(), clk vclock.Clock) *Supervisor {
	ws := append([]Window(nil), windows...)
	sortWindows(ws)
	s := &Supervisor{clk: clk, begin: clk.Now(), windows: mergeWindows(ws), kill: kill, restore: restore}
	s.mu.Lock()
	s.armLocked()
	s.mu.Unlock()
	return s
}

// mergeWindows folds sorted windows into their disjoint union.
func mergeWindows(ws []Window) []Window {
	var out []Window
	for _, w := range ws {
		if n := len(out); n > 0 && w.Start <= out[n-1].End() {
			if w.End() > out[n-1].End() {
				out[n-1].Dur = w.End() - out[n-1].Start
			}
			continue
		}
		out = append(out, w)
	}
	return out
}

// armLocked schedules the next edge relative to the start time, so
// timer latency never accumulates across windows. Callers hold mu.
func (s *Supervisor) armLocked() {
	if s.next == 2*len(s.windows) {
		return
	}
	w := s.windows[s.next/2]
	at := w.Start
	if s.next%2 == 1 {
		at = w.End()
	}
	d := s.begin.Add(at).Sub(s.clk.Now())
	if s.timer == nil {
		s.timer = s.clk.AfterFunc(d, s.edge)
		return
	}
	s.timer.Reset(d)
}

// edge runs the pending kill or restore and arms the one after it. An
// edge whose timer fired while Stop was on its way does nothing.
func (s *Supervisor) edge() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped.Load() {
		return
	}
	if s.next%2 == 0 {
		s.kill()
		s.kills++
	} else {
		s.restore()
		s.resets++
	}
	s.next++
	s.armLocked()
}

// Stop cancels the pending edge and waits for an edge that is already
// running. If the component is down mid-window, restore is called
// before Stop returns, so the component is never left dead. Stop is
// idempotent.
func (s *Supervisor) Stop() {
	s.stopped.Store(true)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.timer != nil {
		s.timer.Stop()
	}
	if s.next%2 == 1 {
		s.restore()
		s.resets++
		s.next++
	}
}
