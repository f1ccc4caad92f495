package emu

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// A binary heap alone does not preserve insertion order for equal keys;
// the seq tie-breaker must. Stress it well past the point where sibling
// swaps would reorder a naive heap.
func TestEngineSameTimestampTieBreakStress(t *testing.T) {
	e := NewEngine()
	const n = 1000
	var got []int
	for i := 0; i < n; i++ {
		i := i
		// Interleave two timestamps so the heap actually rebalances.
		at := time.Second
		if i%3 == 0 {
			at = 2 * time.Second
		}
		e.Schedule(at, func() { got = append(got, i) })
	}
	e.RunUntil(2 * time.Second)
	if len(got) != n {
		t.Fatalf("ran %d events, want %d", len(got), n)
	}
	// Within each timestamp class, schedule order must be preserved.
	lastEarly, lastLate := -1, -1
	for idx, i := range got {
		if i%3 == 0 {
			if idx < n-n/3-1 && lastEarly >= 0 && got[idx] < lastEarly {
				t.Fatalf("2s-class out of order at %d: %v", idx, got[idx])
			}
			if i < lastLate {
				t.Fatalf("2s event %d ran before earlier 2s event %d", i, lastLate)
			}
			lastLate = i
		} else {
			if i < lastEarly {
				t.Fatalf("1s event %d ran before earlier 1s event %d", i, lastEarly)
			}
			lastEarly = i
		}
	}
	// And the 1s class must fully precede the 2s class.
	seenLate := false
	for _, i := range got {
		if i%3 == 0 {
			seenLate = true
		} else if seenLate {
			t.Fatal("1s event ran after a 2s event")
		}
	}
}

func TestEngineNegativeDelayPanicMessage(t *testing.T) {
	defer func() {
		r := recover()
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T %v, want string", r, r)
		}
		if !strings.Contains(msg, "negative delay") || !strings.Contains(msg, "-1s") {
			t.Fatalf("panic %q, want the offending delay named", msg)
		}
	}()
	NewEngine().Schedule(-time.Second, func() {})
}

func TestEngineScheduleAtPastPanicMessage(t *testing.T) {
	e := NewEngine()
	e.Schedule(2*time.Second, func() {
		defer func() {
			r := recover()
			msg, ok := r.(string)
			if !ok || !strings.Contains(msg, "before now") {
				t.Errorf("panic %v, want 'before now' message", r)
			}
		}()
		e.ScheduleAt(time.Second, func() {})
	})
	e.RunUntil(2 * time.Second)
}

// Scheduling from inside a callback at the *current* timestamp must run
// after everything already queued for that timestamp (seq order), and
// zero-delay cascades must run before time advances.
func TestEngineScheduleFromCallbackOrdering(t *testing.T) {
	e := NewEngine()
	var order []string
	log := func(s string) { order = append(order, s) }
	e.Schedule(time.Second, func() {
		log("a")
		e.Schedule(0, func() {
			log("a.child")
			e.Schedule(0, func() { log("a.grandchild") })
		})
	})
	e.Schedule(time.Second, func() { log("b") })
	e.Schedule(2*time.Second, func() { log("c") })
	e.RunUntil(2 * time.Second)
	want := "a,b,a.child,a.grandchild,c"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("Now = %v, want 2s", e.Now())
	}
}

// RunUntil must execute events scheduled exactly at the deadline and
// land the clock on the deadline even when no event sits there.
func TestEngineRunUntilBoundary(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(time.Second, func() { order = append(order, "at") })
	e.Schedule(time.Second+time.Nanosecond, func() { order = append(order, "past") })
	e.RunUntil(time.Second)
	if fmt.Sprint(order) != "[at]" {
		t.Fatalf("order = %v, want only the deadline event", order)
	}
	e.RunUntil(5 * time.Second)
	if e.Now() != 5*time.Second || len(order) != 2 {
		t.Fatalf("now=%v order=%v, want 5s with both events", e.Now(), order)
	}
}
