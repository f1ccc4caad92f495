package tcp

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"satcell/internal/channel"
	"satcell/internal/emu"
)

// The retransmission timer keeps one carrier event in the engine and
// re-arms lazily, yet each timeout must run at exactly the (time,
// sequence) position its arming reserved: after every event scheduled
// for that instant before the arming, before every event scheduled
// after it. The scenario extends a deadline (the carrier fires early and
// hands it on), times out, backs off, and then shrinks the backed-off
// deadline below the pending carrier (the carrier moves up in place).
func TestRTOTieBreakAcrossRearms(t *testing.T) {
	eng := emu.NewEngine()
	dp := emu.NewDuplexPath(eng, flatTrace(channel.ATT, 10, 10, 20*time.Millisecond, 0, 10), emu.PathConfig{})
	var got []string
	mark := func(name string, at time.Duration) {
		eng.ScheduleAt(at, func() { got = append(got, fmt.Sprintf("%s@%v", name, eng.Now())) })
	}
	var c *Conn
	rtos := 0
	c = NewConn(eng, 1, dp.Down, dp.Up, Config{OnRTO: func() {
		rtos++
		got = append(got, fmt.Sprintf("rto@%v", eng.Now()))
		switch rtos {
		case 1:
			// Backed off to 2 s and re-armed for 3.1 s just now.
			mark("after", 3100*time.Millisecond)
		case 2:
			c.sndUna = c.sndNxt // everything acknowledged: disarm
			c.resetRTO()
		}
	}})
	// One segment outstanding; the connection is not running, so the
	// timer is the only thing that acts.
	c.sndNxt = MSS

	mark("before", time.Second)
	c.armRTO() // rto 1 s: deadline 1 s
	mark("after", time.Second)

	mark("before", 1100*time.Millisecond)
	mark("before", 3100*time.Millisecond)
	eng.Schedule(100*time.Millisecond, func() {
		// An ACK extends the deadline to 1.1 s: the carrier stays at 1 s.
		c.resetRTO()
		mark("after", 1100*time.Millisecond)
	})
	eng.Schedule(1500*time.Millisecond, func() {
		// An RTT sample shrinks the backed-off RTO: the deadline moves
		// from 3.1 s to 1.8 s, ahead of the pending carrier.
		mark("before", 1800*time.Millisecond)
		c.rto = 300 * time.Millisecond
		c.resetRTO()
		mark("after", 1800*time.Millisecond)
		if n := eng.Pending(); n != 5 {
			t.Errorf("%d events pending after the shrink, want 5 (4 markers and one carrier)", n)
		}
	})
	eng.RunUntil(time.Minute)

	want := []string{
		"before@1s", "after@1s",
		"before@1.1s", "rto@1.1s", "after@1.1s",
		"before@1.8s", "rto@1.8s", "after@1.8s",
		"before@3.1s", "after@3.1s",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("order\n %v\nwant\n %v", got, want)
	}
	if c.Stats().RTOs != 2 {
		t.Fatalf("RTOs = %d, want 2", c.Stats().RTOs)
	}
}
