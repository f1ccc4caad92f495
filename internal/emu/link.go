package emu

import (
	"math/rand"
	"time"
)

// Packet is the unit of transfer on emulated links. Handler is carried
// opaquely to the receiver; links never inspect it.
type Packet struct {
	Flow    int           // flow identifier, chosen by the transport
	Seq     int64         // transport-assigned sequence number
	Size    int           // bytes on the wire
	SentAt  time.Duration // set by the link when the packet enters the queue
	Payload any           // transport-specific contents
}

// RateFunc returns the instantaneous link capacity in Mbps at virtual
// time t. Returning 0 means the link is in outage.
type RateFunc func(t time.Duration) float64

// ConstantRate returns a RateFunc with a fixed capacity.
func ConstantRate(mbps float64) RateFunc {
	return func(time.Duration) float64 { return mbps }
}

// DelayFunc returns the one-way propagation delay at virtual time t.
type DelayFunc func(t time.Duration) time.Duration

// ConstantDelay returns a fixed propagation delay.
func ConstantDelay(d time.Duration) DelayFunc {
	return func(time.Duration) time.Duration { return d }
}

// LossFunc decides whether a packet is randomly lost on the wire at
// virtual time t (after surviving the queue).
type LossFunc func(t time.Duration, p *Packet) bool

// NoLoss never drops packets.
func NoLoss(time.Duration, *Packet) bool { return false }

// ProbLoss drops packets with probability probAt(t), using r.
func ProbLoss(r *rand.Rand, probAt func(t time.Duration) float64) LossFunc {
	return func(t time.Duration, _ *Packet) bool {
		p := probAt(t)
		return p > 0 && r.Float64() < p
	}
}

// LinkStats counts what happened on a link.
type LinkStats struct {
	Enqueued       int64
	QueueDrops     int64 // droptail discards
	RandomLosses   int64 // wire losses
	Delivered      int64
	DeliveredBytes int64
}

// LinkConfig configures one unidirectional link.
type LinkConfig struct {
	Rate  RateFunc
	Delay DelayFunc
	Loss  LossFunc
	// QueueBytes is the droptail buffer limit. Zero means the default
	// (a generous 400 kB, in line with the deep buffers of real access
	// links).
	QueueBytes int
}

// outagePollInterval is how long a link waits before re-checking the
// rate when capacity is (near) zero.
const outagePollInterval = 20 * time.Millisecond

// minRateMbps guards the serialization-time computation against a zero
// rate; anything below this is treated as outage.
const minRateMbps = 0.01

// Link is a unidirectional trace-shaped pipe: droptail queue -> variable
// rate serializer -> random loss gate -> propagation delay -> receiver.
//
// Each stage keeps at most one event in the engine, however many
// packets are queued or in flight: the serializer's next finishTx (or
// outage poll), and the delivery of the head of the propagation FIFO.
// Packets behind the FIFO head carry the tie-break sequence number
// reserved when they left the serializer, so every delivery runs at
// exactly the (time, sequence) it would have had as its own event.
type Link struct {
	eng     *Engine
	cfg     LinkConfig
	deliver func(*Packet)

	queue        ring[*Packet] // droptail buffer; the head is on the wire
	queueBytes   int
	busy         bool
	inflight     ring[flight]  // propagating packets, in delivery order
	lastDelivery time.Duration // enforces FIFO across varying delay
	stats        LinkStats

	// The stage callbacks, bound once so scheduling allocates nothing.
	finishTxFn, serveNextFn, deliverHeadFn func()
}

// flight is a packet in the propagation stage with its delivery slot.
type flight struct {
	at  time.Duration
	seq uint64
	pkt *Packet
}

// NewLink creates a link inside eng delivering packets to deliver.
func NewLink(eng *Engine, cfg LinkConfig, deliver func(*Packet)) *Link {
	if cfg.Rate == nil {
		cfg.Rate = ConstantRate(100)
	}
	if cfg.Delay == nil {
		cfg.Delay = ConstantDelay(0)
	}
	if cfg.Loss == nil {
		cfg.Loss = NoLoss
	}
	if cfg.QueueBytes <= 0 {
		cfg.QueueBytes = 400 * 1024
	}
	l := &Link{eng: eng, cfg: cfg, deliver: deliver}
	l.finishTxFn, l.serveNextFn, l.deliverHeadFn = l.finishTx, l.serveNext, l.deliverHead
	return l
}

// Stats returns the link's counters.
func (l *Link) Stats() LinkStats { return l.stats }

// Send enqueues a packet, applying droptail when the buffer is full.
// It reports whether the packet was accepted.
func (l *Link) Send(p *Packet) bool {
	if l.queueBytes+p.Size > l.cfg.QueueBytes {
		l.stats.QueueDrops++
		return false
	}
	p.SentAt = l.eng.Now()
	l.queue.push(p)
	l.queueBytes += p.Size
	l.stats.Enqueued++
	if !l.busy {
		l.busy = true
		l.serveNext()
	}
	return true
}

// serveNext begins transmitting the head-of-line packet.
func (l *Link) serveNext() {
	if l.queue.len() == 0 {
		l.busy = false
		return
	}
	rate := l.cfg.Rate(l.eng.Now())
	if rate < minRateMbps {
		// Outage: hold the queue and poll for capacity to return.
		l.eng.Schedule(outagePollInterval, l.serveNextFn)
		return
	}
	p := l.queue.front()
	txTime := time.Duration(float64(p.Size*8) / (rate * 1e6) * float64(time.Second))
	l.eng.Schedule(txTime, l.finishTxFn)
}

// finishTx completes the serialization of the head-of-line packet,
// applies the loss gate, and hands the packet to the propagation stage.
func (l *Link) finishTx() {
	p := l.queue.pop()
	l.queueBytes -= p.Size
	if l.cfg.Loss(l.eng.Now(), p) {
		l.stats.RandomLosses++
	} else {
		// A shrinking delay must not reorder packets: deliver no
		// earlier than the previous delivery (FIFO pipe semantics).
		at := l.eng.Now() + l.cfg.Delay(l.eng.Now())
		if at < l.lastDelivery {
			at = l.lastDelivery
		}
		l.lastDelivery = at
		seq := l.eng.Reserve()
		if l.inflight.len() == 0 {
			l.eng.ScheduleSeq(at, seq, l.deliverHeadFn)
		}
		l.inflight.push(flight{at: at, seq: seq, pkt: p})
	}
	l.serveNext()
}

// deliverHead hands the head of the propagation FIFO to the receiver
// and schedules the next packet's delivery in its reserved slot.
func (l *Link) deliverHead() {
	f := l.inflight.pop()
	if l.inflight.len() > 0 {
		next := l.inflight.front()
		l.eng.ScheduleSeq(next.at, next.seq, l.deliverHeadFn)
	}
	l.stats.Delivered++
	l.stats.DeliveredBytes += int64(f.pkt.Size)
	l.deliver(f.pkt)
}

// ring is a growable FIFO over a circular buffer whose length is a power
// of two: steady-state push and pop reuse the backing array instead of
// reslicing it away.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) len() int { return r.n }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(8, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// front returns the oldest element; the ring must be non-empty.
func (r *ring[T]) front() T { return r.buf[r.head] }

// pop removes and returns the oldest element, zeroing its slot; the ring
// must be non-empty.
func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}
