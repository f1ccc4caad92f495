// Package netem shapes real socket traffic the way MpShell (the paper's
// Mahimahi variant) shapes virtual interfaces: trace-driven rate
// pacing, one-way propagation delay, and (for datagrams) probabilistic
// loss. It provides an in-process shaped pipe for tests, plus UDP and
// TCP relays so the real measurement tools in internal/meas can run
// against emulated Starlink/cellular conditions over loopback.
//
// Unlike the discrete-event emulator (internal/emu), this package runs
// in wall-clock time against real file descriptors. TCP relays shape
// rate and delay only: stream loss is the kernel's business and cannot
// be emulated above the socket layer.
package netem

import (
	"math/rand"
	"sync"
	"time"

	"satcell/internal/channel"
	"satcell/internal/vclock"
)

// Shape describes time-varying link conditions. All functions receive
// the elapsed wall time since the shaper started.
type Shape struct {
	// RateMbps returns the link capacity; values <= 0 stall the link.
	RateMbps func(elapsed time.Duration) float64
	// Delay returns the one-way propagation delay.
	Delay func(elapsed time.Duration) time.Duration
	// LossProb returns the datagram loss probability (ignored for
	// byte-stream shaping).
	LossProb func(elapsed time.Duration) float64
}

// ConstantShape returns a Shape with fixed conditions.
func ConstantShape(rateMbps float64, delay time.Duration, loss float64) Shape {
	return Shape{
		RateMbps: func(time.Duration) float64 { return rateMbps },
		Delay:    func(time.Duration) time.Duration { return delay },
		LossProb: func(time.Duration) float64 { return loss },
	}
}

// FromTrace derives a Shape replaying the given channel trace
// direction. The trace loops when the wall clock runs past its end.
func FromTrace(tr *channel.Trace, uplink bool) Shape {
	return Shape{
		RateMbps: func(e time.Duration) float64 {
			s := sampleAt(tr, e)
			if uplink {
				return s.UpMbps
			}
			return s.DownMbps
		},
		Delay: func(e time.Duration) time.Duration {
			return sampleAt(tr, e).RTT / 2
		},
		LossProb: func(e time.Duration) float64 {
			s := sampleAt(tr, e)
			if uplink {
				return s.LossUp
			}
			return s.LossDown
		},
	}
}

func sampleAt(tr *channel.Trace, e time.Duration) channel.Sample {
	if d := tr.Duration(); d > 0 {
		e = e % (d + time.Second)
	}
	return tr.At(e)
}

// FillDefaults sets every nil function of s to its default: 100 Mbps,
// no delay, no loss.
func (s *Shape) FillDefaults() {
	if s.RateMbps == nil {
		s.RateMbps = func(time.Duration) float64 { return 100 }
	}
	if s.Delay == nil {
		s.Delay = func(time.Duration) time.Duration { return 0 }
	}
	if s.LossProb == nil {
		s.LossProb = func(time.Duration) float64 { return 0 }
	}
}

// maxQueueDelay bounds the pacer's virtual queue: once the backlog
// exceeds this much serialization time, further units are droptailed —
// the same role as Mahimahi's droptail byte limit.
const maxQueueDelay = 400 * time.Millisecond

// pacer serializes transmissions at the shape's (time-varying) rate and
// computes each unit's delivery time. It is safe for concurrent use.
// All time arithmetic goes through its Clock: the relays and pipes pass
// vclock.Wall, and the pacer tests pass a vclock.SimClock so their
// expectations are exact.
type pacer struct {
	mu     sync.Mutex
	shape  Shape
	clk    vclock.Clock
	start  time.Time
	nextTx time.Time
	rng    *rand.Rand
}

func newPacer(shape Shape, seed int64, clk vclock.Clock) *pacer {
	shape.FillDefaults()
	return &pacer{
		shape: shape,
		clk:   clk,
		start: clk.Now(),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// admit accounts for the transmission of size bytes and returns when
// the bytes finish arriving at the far end, plus whether a datagram of
// this size should instead be dropped (random loss or droptail).
func (p *pacer) admit(size int) (deliverAt time.Time, drop bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.clk.Now()
	elapsed := now.Sub(p.start)
	if p.rng.Float64() < p.shape.LossProb(elapsed) {
		return time.Time{}, true
	}
	rate := p.shape.RateMbps(elapsed)
	if rate <= 0.01 {
		rate = 0.01 // outage: crawl rather than divide by zero
	}
	if p.nextTx.Before(now) {
		p.nextTx = now
	}
	if p.nextTx.Sub(now) > maxQueueDelay {
		return time.Time{}, true // droptail: the virtual buffer is full
	}
	tx := time.Duration(float64(size*8) / (rate * 1e6) * float64(time.Second))
	p.nextTx = p.nextTx.Add(tx)
	return p.nextTx.Add(p.shape.Delay(elapsed)), false
}

// backlog returns the pacer's current serialization backlog: how far
// ahead of now the virtual queue's next transmission slot sits. Zero
// means the queue is empty. This is the relay's observable queue
// occupancy (Mahimahi's droptail buffer fill, in time units).
func (p *pacer) backlog() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	if d := p.nextTx.Sub(p.clk.Now()); d > 0 {
		return d
	}
	return 0
}

// admitStream paces size bytes without loss or droptail: byte streams
// get backpressure (the caller sleeps until deliverAt) instead of drops.
func (p *pacer) admitStream(size int) (deliverAt time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.clk.Now()
	elapsed := now.Sub(p.start)
	rate := p.shape.RateMbps(elapsed)
	if rate <= 0.01 {
		rate = 0.01
	}
	if p.nextTx.Before(now) {
		p.nextTx = now
	}
	tx := time.Duration(float64(size*8) / (rate * 1e6) * float64(time.Second))
	p.nextTx = p.nextTx.Add(tx)
	return p.nextTx.Add(p.shape.Delay(elapsed))
}
