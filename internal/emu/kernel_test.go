package emu

import (
	"math/rand"
	"testing"
	"time"

	"satcell/internal/channel"
)

// A packet's trip through a link — enqueue, serialization, propagation
// FIFO, delivery — allocates nothing once the link's rings have grown.
func TestLinkSendDeliverZeroAllocs(t *testing.T) {
	e := NewEngine()
	delivered := 0
	l := NewLink(e, LinkConfig{Rate: ConstantRate(100), Delay: ConstantDelay(10 * time.Millisecond)},
		func(*Packet) { delivered++ })
	pkts := make([]Packet, 32)
	burst := func() {
		for i := range pkts {
			pkts[i].Size = mtu
			l.Send(&pkts[i])
		}
		e.RunUntil(e.Now() + time.Second)
	}
	burst() // grow the rings and the heap
	allocs := testing.AllocsPerRun(100, burst)
	if allocs != 0 {
		t.Fatalf("%.1f allocations per %d-packet burst, want 0", allocs, len(pkts))
	}
	if st := l.Stats(); delivered == 0 || int64(delivered) != st.Delivered || st.Enqueued != st.Delivered {
		t.Fatalf("delivered %d packets, stats %+v: every burst should drain", delivered, st)
	}
}

// The path's trace cursor answers exactly what Trace.At answers, for
// forward and backward queries, including repeated timestamps and
// queries before the first sample or past the last.
func TestTraceCursorMatchesTraceAt(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		tr := &channel.Trace{}
		at := time.Duration(r.Intn(3)) * time.Second
		for i := r.Intn(12); i >= 0; i-- {
			tr.Samples = append(tr.Samples, channel.Sample{At: at, DownMbps: float64(len(tr.Samples))})
			at += time.Duration(r.Intn(3)) * 500 * time.Millisecond // 0: a repeated timestamp
		}
		if trial%10 == 0 {
			tr.Samples = nil
		}
		c := newTraceCursor(tr)
		q := time.Duration(0)
		for i := 0; i < 100; i++ {
			if r.Intn(8) == 0 {
				q = time.Duration(r.Int63n(int64(20 * time.Second))) // jump, possibly backwards
			} else {
				q += time.Duration(r.Int63n(int64(400 * time.Millisecond)))
			}
			if got, ref := *c.at(q), tr.At(q); got != ref {
				t.Fatalf("trial %d query %v: cursor %+v, Trace.At %+v (samples %+v)", trial, q, got, ref, tr.Samples)
			}
		}
	}
}

// A link keeps only its head delivery in the engine; the packets queued
// behind it carry the sequence numbers reserved when they left the
// serializer. Events other components schedule for the same nanosecond
// must interleave with those deliveries exactly as if every delivery
// had been its own event: an event scheduled before a packet's delivery
// time was fixed runs before it, one scheduled after runs after it.
func TestEngineSameTimestampTieBreakLinkFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	const n = 50
	// A delay that collapses from 200 ms to zero after the first packet
	// leaves the serializer (at 1 ms) clamps every later packet to the
	// first one's delivery instant, so all n deliveries and their markers
	// share one timestamp.
	delay := func(t time.Duration) time.Duration {
		if t <= time.Millisecond {
			return 200 * time.Millisecond
		}
		return 0
	}
	var lastAt time.Duration
	pending := -1 // packet whose delivery time is fixed but whose after-marker is not yet scheduled
	l := NewLink(e, LinkConfig{
		// The serializer consults Rate right after a packet's delivery
		// slot is reserved (when more packets are queued): schedule the
		// after-marker there.
		Rate: func(time.Duration) float64 {
			if pending >= 0 {
				k := pending
				e.ScheduleAt(lastAt, func() { got = append(got, 3*k+2) })
				pending = -1
			}
			return 12 // one MTU per millisecond
		},
		Delay: delay,
		// The loss gate runs just before the delivery slot is reserved:
		// schedule the before-marker there.
		Loss: func(now time.Duration, p *Packet) bool {
			at := max(now+delay(now), lastAt)
			lastAt = at
			k := int(p.Seq)
			e.ScheduleAt(at, func() { got = append(got, 3*k) })
			pending = k
			return false
		},
	}, func(p *Packet) { got = append(got, 3*int(p.Seq)+1) })
	for i := 0; i < n; i++ {
		l.Send(&Packet{Seq: int64(i), Size: mtu})
	}
	e.RunUntil(201*time.Millisecond - 1)
	if len(got) != 0 {
		t.Fatalf("%d events ran before the shared instant 201ms", len(got))
	}
	e.RunUntil(201 * time.Millisecond)
	if len(got) != 3*n-1 {
		t.Fatalf("ran %d events, want %d", len(got), 3*n-1)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("event %d is %d, want %d: order %v", i, v, i, got)
		}
	}
}
