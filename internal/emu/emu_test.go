package emu

import (
	"maps"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"satcell/internal/channel"
)

// mtu is the Ethernet-sized packet the link tests send.
const mtu = 1500

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(2*time.Second, func() { order = append(order, 2) })
	e.Schedule(time.Second, func() { order = append(order, 1) })
	e.Schedule(time.Second, func() { order = append(order, 11) }) // same time: FIFO
	e.Schedule(3*time.Second, func() { order = append(order, 3) })
	e.RunUntil(3 * time.Second)
	want := []int{1, 11, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(time.Second, func() {
		e.Schedule(time.Second, func() { fired++ })
	})
	e.RunUntil(2 * time.Second)
	if fired != 1 {
		t.Fatal("nested event did not fire")
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(time.Second, func() { fired++ })
	e.Schedule(5*time.Second, func() { fired++ })
	e.RunUntil(2 * time.Second)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("Now = %v, want 2s", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d", e.Pending())
	}
	e.RunUntil(10 * time.Second)
	if fired != 2 {
		t.Fatal("second event not fired")
	}
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine().Schedule(-time.Second, func() {})
}

func TestLinkThroughputMatchesRate(t *testing.T) {
	e := NewEngine()
	var got int64
	l := NewLink(e, LinkConfig{Rate: ConstantRate(12)}, func(p *Packet) { got += int64(p.Size) })
	// Offer 10 seconds of packets at 12 Mbps = 15 MB... offer more than
	// capacity and let droptail shed the rest; feed 1 packet per ms.
	var feed func()
	sent := 0
	feed = func() {
		if e.Now() >= 10*time.Second {
			return
		}
		l.Send(&Packet{Seq: int64(sent), Size: mtu})
		sent++
		e.Schedule(time.Millisecond, feed)
	}
	e.Schedule(0, feed)
	e.RunUntil(10 * time.Second)
	e.RunUntil(time.Hour) // drain
	// 12 Mbps for 10 s = 15,000,000 bytes. Allow 5% tolerance.
	want := int64(15e6)
	if got < want*95/100 || got > want*105/100 {
		t.Fatalf("delivered %d bytes, want ~%d", got, want)
	}
}

func TestLinkDroptail(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, LinkConfig{Rate: ConstantRate(1), QueueBytes: 3 * mtu}, func(*Packet) {})
	accepted := 0
	for i := 0; i < 10; i++ {
		if l.Send(&Packet{Seq: int64(i), Size: mtu}) {
			accepted++
		}
	}
	if accepted != 3 {
		t.Fatalf("accepted %d, want 3 (queue limit)", accepted)
	}
	if l.Stats().QueueDrops != 7 {
		t.Fatalf("drops = %d", l.Stats().QueueDrops)
	}
	if l.queueBytes != 3*mtu {
		t.Fatalf("queued bytes = %d", l.queueBytes)
	}
}

func TestLinkPropagationDelay(t *testing.T) {
	e := NewEngine()
	var deliveredAt time.Duration
	l := NewLink(e, LinkConfig{
		Rate:  ConstantRate(1000),
		Delay: ConstantDelay(30 * time.Millisecond),
	}, func(*Packet) { deliveredAt = e.Now() })
	l.Send(&Packet{Size: mtu})
	e.RunUntil(time.Hour)
	tx := time.Duration(float64(mtu*8) / 1000e6 * float64(time.Second))
	want := 30*time.Millisecond + tx
	if diff := deliveredAt - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestLinkRandomLoss(t *testing.T) {
	e := NewEngine()
	delivered := 0
	r := rand.New(rand.NewSource(5))
	l := NewLink(e, LinkConfig{
		Rate:       ConstantRate(10000),
		Loss:       ProbLoss(r, func(time.Duration) float64 { return 0.3 }),
		QueueBytes: 100 << 20,
	}, func(*Packet) { delivered++ })
	n := 20000
	for i := 0; i < n; i++ {
		l.Send(&Packet{Seq: int64(i), Size: 200})
	}
	e.RunUntil(time.Hour)
	frac := float64(delivered) / float64(n)
	if frac < 0.67 || frac > 0.73 {
		t.Fatalf("delivery fraction %v, want ~0.7", frac)
	}
	if int(l.Stats().RandomLosses)+delivered != n {
		t.Fatal("loss + delivered != sent")
	}
}

func TestLinkOutageHoldsPackets(t *testing.T) {
	e := NewEngine()
	delivered := 0
	// Rate is 0 for the first second, then 100 Mbps.
	rate := func(t time.Duration) float64 {
		if t < time.Second {
			return 0
		}
		return 100
	}
	l := NewLink(e, LinkConfig{Rate: rate}, func(*Packet) { delivered++ })
	l.Send(&Packet{Size: mtu})
	e.RunUntil(900 * time.Millisecond)
	if delivered != 0 {
		t.Fatal("packet delivered during outage")
	}
	e.RunUntil(time.Hour)
	if delivered != 1 {
		t.Fatal("packet lost across outage")
	}
}

func TestLinkFIFOUnderShrinkingDelay(t *testing.T) {
	e := NewEngine()
	// Delay drops sharply after 50ms; FIFO must still hold.
	delay := func(t time.Duration) time.Duration {
		if t < 50*time.Millisecond {
			return 100 * time.Millisecond
		}
		return time.Millisecond
	}
	var seqs []int64
	l := NewLink(e, LinkConfig{Rate: ConstantRate(0.5), Delay: delay}, func(p *Packet) {
		seqs = append(seqs, p.Seq)
	})
	for i := 0; i < 5; i++ {
		l.Send(&Packet{Seq: int64(i), Size: mtu})
	}
	e.RunUntil(time.Hour)
	for i := 1; i < len(seqs); i++ {
		if seqs[i] < seqs[i-1] {
			t.Fatalf("reordering: %v", seqs)
		}
	}
	if len(seqs) != 5 {
		t.Fatalf("delivered %d of 5", len(seqs))
	}
}

func tracedPath() *channel.Trace {
	tr := &channel.Trace{Network: channel.StarlinkMobility}
	for i := 0; i < 30; i++ {
		tr.Samples = append(tr.Samples, channel.Sample{
			At:       time.Duration(i) * time.Second,
			DownMbps: 100,
			UpMbps:   10,
			RTT:      50 * time.Millisecond,
		})
	}
	return tr
}

func TestPathReplaysTrace(t *testing.T) {
	e := NewEngine()
	var downBytes, upBytes int64
	p := NewPath(e, tracedPath(), PathConfig{Seed: 1},
		func(pk *Packet) { downBytes += int64(pk.Size) },
		func(pk *Packet) { upBytes += int64(pk.Size) })

	var feed func()
	feed = func() {
		if e.Now() >= 5*time.Second {
			return
		}
		p.Down.Send(&Packet{Size: mtu})
		p.Up.Send(&Packet{Size: mtu})
		e.Schedule(500*time.Microsecond, feed) // offered: 24 Mbps each way
	}
	e.Schedule(0, feed)
	e.RunUntil(6 * time.Second)
	e.RunUntil(time.Hour)
	// Downlink should carry all offered load (24 < 100 Mbps);
	// uplink saturates at 10 Mbps * 5 s = 6.25 MB.
	if downBytes < int64(14e6) {
		t.Fatalf("downlink carried %d bytes", downBytes)
	}
	upWant := int64(10e6 / 8 * 5)
	if upBytes < upWant*90/100 || upBytes > upWant*110/100 {
		t.Fatalf("uplink carried %d bytes, want ~%d", upBytes, upWant)
	}
	if p.Trace.At(time.Second).RTT != 50*time.Millisecond {
		t.Fatal("base RTT wrong")
	}
}

func TestPathLoopWraps(t *testing.T) {
	tr := &channel.Trace{Network: channel.ATT}
	tr.Samples = []channel.Sample{
		{At: 0, DownMbps: 50, UpMbps: 5, RTT: 40 * time.Millisecond},
		{At: time.Second, DownMbps: 50, UpMbps: 5, RTT: 40 * time.Millisecond},
	}
	e := NewEngine()
	got := 0
	p := NewPath(e, tr, PathConfig{Seed: 2, Loop: true}, func(*Packet) { got++ }, func(*Packet) {})
	// Send a packet well past the end of the 1s trace.
	e.Schedule(10*time.Second, func() { p.Down.Send(&Packet{Size: mtu}) })
	e.RunUntil(time.Hour)
	if got != 1 {
		t.Fatal("looped path did not deliver")
	}
}

// TestEngineMonotonicTimeProperty: regardless of the (possibly
// unsorted) schedule order, callbacks always observe non-decreasing
// virtual time.
func TestEngineMonotonicTimeProperty(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		e := NewEngine()
		last := time.Duration(-1)
		okOrder := true
		for _, d := range delaysMs {
			e.Schedule(time.Duration(d)*time.Millisecond, func() {
				if e.Now() < last {
					okOrder = false
				}
				last = e.Now()
			})
		}
		e.RunUntil(time.Hour)
		return okOrder
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLinkConservationProperty: enqueued = delivered + queue drops +
// random losses + still queued, for arbitrary offered loads.
func TestLinkConservationProperty(t *testing.T) {
	f := func(sizes []uint16, rate8 uint8) bool {
		e := NewEngine()
		delivered := 0
		rate := 1 + float64(rate8)
		r := rand.New(rand.NewSource(int64(len(sizes))))
		l := NewLink(e, LinkConfig{
			Rate:       ConstantRate(rate),
			Loss:       ProbLoss(r, func(time.Duration) float64 { return 0.1 }),
			QueueBytes: 64 << 10,
		}, func(*Packet) { delivered++ })
		sent := 0
		for _, sz := range sizes {
			size := int(sz%1400) + 100
			l.Send(&Packet{Size: size})
			sent++
		}
		e.RunUntil(time.Hour)
		st := l.Stats()
		return int(st.Enqueued) == sent-int(st.QueueDrops) &&
			delivered == int(st.Delivered) &&
			int(st.Delivered+st.RandomLosses+st.QueueDrops) == sent
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFlowMuxRouting registers and replaces flow handlers: a packet
// reaches only its flow's current handler, and a packet for an
// unregistered flow reaches none.
func TestFlowMuxRouting(t *testing.T) {
	m := NewFlowMux()
	got := map[string]int{}
	handler := func(name string) func(*Packet) { return func(*Packet) { got[name]++ } }
	m.Register(1, handler("a"))
	m.Register(2, handler("b"))
	m.Register(3, handler("c"))
	m.Register(2, handler("b2")) // replaces b in place
	for _, flow := range []int{1, 2, 2, 3, 4} {
		m.Deliver(&Packet{Flow: flow})
	}
	if want := map[string]int{"a": 1, "b2": 2, "c": 1}; !maps.Equal(got, want) {
		t.Fatalf("deliveries %v, want %v", got, want)
	}
	if len(m.flows) != 3 {
		t.Fatalf("mux holds %d flows, want 3", len(m.flows))
	}
}
