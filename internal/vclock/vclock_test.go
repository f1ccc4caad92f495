package vclock

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestWallSmoke(t *testing.T) {
	start := Wall.Now()
	fired := make(chan time.Time, 1)
	tm := Wall.AfterFunc(time.Millisecond, func() { fired <- Wall.Now() })
	select {
	case at := <-fired:
		if !at.After(start) {
			t.Fatal("wall clock did not advance across the timer")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("wall timer never fired")
	}
	if tm.Stop() {
		t.Fatal("Stop after fire reported armed")
	}
}

func TestSchedulerOrderingAndTieBreak(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	s.Schedule(time.Millisecond, func() { got = append(got, 1) })
	// Same timestamp: schedule order must be preserved via seq.
	s.Schedule(3*time.Millisecond, func() { got = append(got, 3) })
	s.Schedule(3*time.Millisecond, func() { got = append(got, 4) })
	s.Run()
	want := []int{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3*time.Millisecond {
		t.Fatalf("Now = %v, want 3ms", s.Now())
	}
}

func TestSchedulerNegativeDelayPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic for negative delay")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "negative delay") {
			t.Fatalf("panic = %v, want message about negative delay", r)
		}
	}()
	NewScheduler().Schedule(-time.Second, func() {})
}

func TestSimClockTimerStopAndReset(t *testing.T) {
	c := NewSim()
	var fired atomic.Int32
	tm := c.AfterFunc(time.Second, func() { fired.Add(1) })
	if !tm.Stop() {
		t.Fatal("Stop on armed timer reported not armed")
	}
	c.RunUntil(c.Elapsed() + 2*time.Second)
	if fired.Load() != 0 {
		t.Fatal("stopped timer fired")
	}
	if tm.Reset(time.Second) {
		t.Fatal("Reset on stopped timer reported armed")
	}
	c.RunUntil(c.Elapsed() + 2*time.Second)
	if fired.Load() != 1 {
		t.Fatalf("reset timer fired %d times, want 1", fired.Load())
	}
}

func TestSimClockStopUnblocksRun(t *testing.T) {
	c := NewSim()
	c.AfterFunc(time.Second, func() { c.s.Stop() })
	c.AfterFunc(time.Hour, func() { t.Error("event after Stop ran") })
	c.s.Run()
	if c.Elapsed() != time.Second {
		t.Fatalf("Elapsed = %v, want 1s (stopped)", c.Elapsed())
	}
	if c.s.Pending() != 1 {
		t.Fatalf("Pending = %d, want the 1h event still queued", c.s.Pending())
	}
}
