package vclock_test

import (
	"sync/atomic"
	"testing"
	"time"

	"satcell/internal/testutil"
)

func TestSimClockTimerStopAndReset(t *testing.T) {
	c := testutil.NewSim()
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
