package faults

import (
	"fmt"
	"testing"
	"time"

	"satcell/internal/vclock"
)

// Under a SimClock the supervisor schedules kill/restore as events, so
// every firing lands on its exact virtual instant — no wall tolerance.
func TestSupervisorVirtualClockExactInstants(t *testing.T) {
	c := vclock.NewSim()
	var events []string
	log := func(tag string) {
		events = append(events, fmt.Sprintf("%s@%v", tag, c.Elapsed()))
	}
	sup := supervise(
		[]Window{
			{Start: 10 * time.Second, Dur: time.Second},
			{Start: 2 * time.Second, Dur: 3 * time.Second}, // sorted by the supervisor
		},
		func() { log("kill") }, func() { log("restore") }, c)
	c.RunUntil(20 * time.Second)
	sup.Stop()
	want := []string{"kill@2s", "restore@5s", "kill@10s", "restore@11s"}
	if fmt.Sprint(events) != fmt.Sprint(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	if kills, restores := counts(sup); kills != 2 || restores != 2 {
		t.Fatalf("kills/restores = %d/%d", kills, restores)
	}
}

// Overlapping restart windows merge into their union before they are
// scheduled: the component goes down once at the first start and comes
// back once at the last end, exactly where Schedule.ComponentDownAt
// says it is down.
func TestSupervisorVirtualClockMergesOverlappingWindows(t *testing.T) {
	c := vclock.NewSim()
	ws := []Window{{Start: 2 * time.Second, Dur: 4 * time.Second}, {Start: 4 * time.Second, Dur: 4 * time.Second}}
	var events []string
	down := false
	sched := Schedule{Restarts: ws}
	log := func(tag string) {
		events = append(events, fmt.Sprintf("%s@%v", tag, c.Elapsed()))
	}
	sup := supervise(ws,
		func() { down = true; log("kill") },
		func() { down = false; log("restore") }, c)
	for at := time.Duration(0); at <= 10*time.Second; at += 500 * time.Millisecond {
		c.RunUntil(at)
		if down != sched.ComponentDownAt(at) {
			t.Fatalf("at %v: supervised component down=%v, ComponentDownAt=%v", at, down, !down)
		}
	}
	sup.Stop()
	want := []string{"kill@2s", "restore@8s"}
	if fmt.Sprint(events) != fmt.Sprint(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	if kills, restores := counts(sup); kills != 1 || restores != 1 {
		t.Fatalf("kills/restores = %d/%d, want 1/1", kills, restores)
	}
}

func TestSupervisorVirtualClockStopMidWindowRestores(t *testing.T) {
	c := vclock.NewSim()
	kills, restores := 0, 0
	sup := supervise(
		[]Window{{Start: time.Second, Dur: time.Hour}},
		func() { kills++ }, func() { restores++ }, c)
	c.RunUntil(2 * time.Second) // inside the window: component is down
	sup.Stop()
	if kills != 1 || restores != 1 {
		t.Fatalf("kills/restores = %d/%d, want 1/1 (restored on Stop)", kills, restores)
	}
	c.RunUntil(2 * time.Hour) // cancelled restore event must not fire
	if restores != 1 {
		t.Fatalf("restore fired after Stop: %d", restores)
	}
	sup.Stop() // idempotent
}
