package vclock

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// A number drawn with Reserve keeps its tie-break position however late
// it is scheduled: the deferred event runs after events reserved before
// it and before events reserved after it, at the same virtual instant.
func TestSchedulerReserveKeepsTieBreakPosition(t *testing.T) {
	var s Scheduler
	var got []string
	log := func(name string) func() { return func() { got = append(got, name) } }
	s.ScheduleAt(time.Second, log("a"))
	seq := s.Reserve()
	s.ScheduleAt(time.Second, log("c"))
	s.Schedule(500*time.Millisecond, func() {
		// Scheduled half a second after c, yet it keeps the slot reserved
		// between a and c.
		s.ScheduleSeq(time.Second, seq, log("b"))
	})
	s.RunUntil(time.Second)
	if strings.Join(got, ",") != "a,b,c" {
		t.Fatalf("order %v, want [a b c]", got)
	}
}

func TestSchedulerScheduleSeqRejectsUnreservedNumber(t *testing.T) {
	for _, seq := range []uint64{0, 2} {
		t.Run(fmt.Sprint(seq), func(t *testing.T) {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "never reserved") {
					t.Fatalf("panic %q, want a never-reserved message", msg)
				}
			}()
			var s Scheduler
			s.Reserve()
			s.ScheduleSeq(time.Second, seq, func() {})
		})
	}
}

// A movable event stays one heap entry while it moves earlier and later,
// and runs at the last position it was moved to.
func TestSchedulerSlotMoves(t *testing.T) {
	var s Scheduler
	var got []string
	log := func(name string) func() { return func() { got = append(got, name) } }
	for i := 1; i <= 5; i++ {
		s.ScheduleAt(time.Duration(i)*time.Second, log(fmt.Sprint(i)))
	}
	var sl Slot
	if sl.Pending() {
		t.Fatal("zero Slot reports pending")
	}
	s.ScheduleSlot(&sl, 4*time.Second, s.Reserve(), log("timer"))
	// Earlier, behind the 2s event (reserved after it)...
	s.MoveSlot(&sl, 2*time.Second, s.Reserve())
	// ...then later, ahead of an event reserved after the move.
	late := s.Reserve()
	s.ScheduleAt(3*time.Second, log("3b"))
	s.MoveSlot(&sl, 3*time.Second, late)
	if !sl.Pending() || s.Pending() != 7 {
		t.Fatalf("pending slot=%v heap=%d, want true and 7 entries", sl.Pending(), s.Pending())
	}
	s.RunUntil(5 * time.Second)
	if want := "1,2,3,timer,3b,4,5"; strings.Join(got, ",") != want {
		t.Fatalf("order %v, want %s", got, want)
	}
	if sl.Pending() {
		t.Fatal("slot still pending after its event ran")
	}
	// An idle slot can be scheduled again.
	s.ScheduleSlot(&sl, s.Now(), s.Reserve(), log("again"))
	s.RunUntil(s.Now())
	if got[len(got)-1] != "again" {
		t.Fatalf("re-scheduled slot did not run: %v", got)
	}
}

// Random pushes, pops and slot moves against a sorted reference: the
// typed heap must pop in exact (at, seq) order.
func TestSchedulerHeapMatchesSortedReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var s Scheduler
	type key struct {
		at  time.Duration
		seq uint64
	}
	var ran []key
	slots := make([]Slot, 8)
	pos := make([]key, len(slots))
	for step := 0; step < 20000; step++ {
		switch op := r.Intn(10); {
		case op < 5:
			k := key{s.Now() + time.Duration(r.Intn(50)), s.Reserve()}
			s.ScheduleSeq(k.at, k.seq, func() { ran = append(ran, k) })
		case op < 7:
			i := r.Intn(len(slots))
			k := key{s.Now() + time.Duration(r.Intn(50)), s.Reserve()}
			pos[i] = k
			if slots[i].Pending() {
				s.MoveSlot(&slots[i], k.at, k.seq)
			} else {
				s.ScheduleSlot(&slots[i], k.at, k.seq, func() { ran = append(ran, pos[i]) })
			}
		default:
			if s.Pending() > 0 {
				ev := s.pop()
				s.now = ev.At
				ev.fn()
			}
		}
	}
	s.RunUntil(s.Now() + 50) // every event is due within 50 ns of now
	for i := 1; i < len(ran); i++ {
		a, b := ran[i-1], ran[i]
		if b.at < a.at || b.at == a.at && b.seq < a.seq {
			t.Fatalf("event %d (%v) ran after %v", i, b, a)
		}
	}
}

// Steady-state scheduling allocates nothing: the heap's backing array is
// reused, and pop zeroes the slot it vacates.
func TestSchedulerSteadyStateZeroAllocs(t *testing.T) {
	var s Scheduler
	fn := func() {}
	for i := 0; i < 64; i++ {
		s.Schedule(time.Duration(i), fn)
	}
	var sl Slot
	allocs := testing.AllocsPerRun(1000, func() {
		s.Schedule(time.Millisecond, fn)
		s.ScheduleSlot(&sl, s.Now()+time.Millisecond, s.Reserve(), fn)
		s.MoveSlot(&sl, s.Now(), s.Reserve())
		for j := 0; j < 2; j++ {
			ev := s.pop()
			s.now = ev.At
		}
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per push/pop round, want 0", allocs)
	}
	n := len(s.events)
	s.Schedule(0, fn)
	s.pop()
	if s.events[:n+1][n].fn != nil {
		t.Fatal("pop left a callback in the slot it vacated")
	}
}
