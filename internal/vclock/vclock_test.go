package vclock

import (
	"slices"
	"strings"
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
	var s Scheduler
	var got []int
	s.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	s.Schedule(time.Millisecond, func() { got = append(got, 1) })
	// Same timestamp: schedule order must be preserved via seq.
	s.Schedule(3*time.Millisecond, func() { got = append(got, 3) })
	s.Schedule(3*time.Millisecond, func() { got = append(got, 4) })
	// RunUntil runs the events due by the deadline, then moves the clock
	// to the deadline.
	s.RunUntil(2 * time.Millisecond)
	if !slices.Equal(got, []int{1, 2}) || s.Now() != 2*time.Millisecond {
		t.Fatalf("after RunUntil(2ms): order %v, Now %v; want [1 2] at 2ms", got, s.Now())
	}
	s.RunUntil(10 * time.Millisecond)
	if !slices.Equal(got, []int{1, 2, 3, 4}) || s.Now() != 10*time.Millisecond {
		t.Fatalf("after RunUntil(10ms): order %v, Now %v; want [1 2 3 4] at 10ms", got, s.Now())
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
	new(Scheduler).Schedule(-time.Second, func() {})
}
