package netem

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"satcell/internal/vclock"
)

const (
	// pacedChunk is the pacing granularity for byte streams: one read.
	pacedChunk = 8 * 1024
	// pumpChunks caps the chunks one pump direction holds, read but not
	// yet written. 1 MiB covers the in-flight pipe (rate x one-way
	// delay) of 100 Mbps at 80 ms; a full FIFO stops the reader, so
	// kernel flow control pushes back on the sender.
	pumpChunks = 128
	// readAhead is how far past the pacer's serialization clock the
	// reader admits bytes before it waits for the backlog to drain.
	readAhead = 2 * time.Millisecond
	// blackoutPoll is how often a stalled pump re-checks a blackout.
	blackoutPoll = 10 * time.Millisecond
)

// streamLink is what a byte-stream pump needs from its owner: the
// teardown signal and, for a relay, the fault gate, the clock origin of
// the gate's windows and the attached observability. The tests' pipe
// leaves the gate and obs unset.
type streamLink struct {
	gate   FaultGate
	start  time.Time
	obs    atomic.Pointer[relayObs]
	closed chan struct{}
}

// chunk is one read of a byte stream, queued in a pump's propagation
// FIFO until its paced delivery time.
type chunk struct {
	deliverAt time.Time
	buf       []byte
}

// pump copies src to dst with shaped pacing until either side closes or
// the link's closed channel fires, then closes both. It is split into a
// reader, which admits each chunk to the pacer as it arrives, and a
// writer, which delivers each chunk at its paced time; a FIFO of
// {deliverAt, chunk} joins them, the wall-clock twin of the propagation
// FIFO emu.Link keeps in virtual time. dir labels the direction ("up" =
// client to server) for accounting. Every byte read is accounted as
// delivered or, when the pump exits holding it (the link closed, or the
// receiving side is gone), as dropped with cause "closed": bytes in ==
// bytes out + bytes dropped.
func (l *streamLink) pump(src, dst net.Conn, shape Shape, dir string) {
	// Buffers circulate between free, the reader and the FIFO, and at
	// most pumpChunks exist, so sends on either channel never block.
	fifo := make(chan chunk, pumpChunks)
	free := make(chan []byte, pumpChunks)
	stop := make(chan struct{})
	var once sync.Once
	sever := func() {
		once.Do(func() {
			close(stop)
			src.Close()
			dst.Close()
		})
	}
	written := make(chan struct{})
	go func() {
		defer close(written)
		l.deliver(dst, dir, fifo, free, stop, sever)
	}()
	l.read(src, newPacer(shape, 1, vclock.Wall), dir, fifo, free, stop, sever)
	close(fifo)
	<-written
	sever()
}

// read is the pump's reading half. It reads src into recycled buffers,
// admits each chunk to the pacer and queues it for the writer, then
// waits only while the pacer's backlog exceeds readAhead or the link is
// blacked out; the propagation delay is the writer's to wait out. It
// returns on a read error, or severs the pump when the link closes.
func (l *streamLink) read(src net.Conn, p *pacer, dir string, fifo chan<- chunk, free chan []byte, stop <-chan struct{}, sever func()) {
	tm := idleTimer()
	allocated := 0
	var buf []byte
	for {
		if buf == nil && len(free) == 0 && allocated < pumpChunks {
			allocated++
			buf = make([]byte, pacedChunk)
		}
		if buf == nil {
			select {
			case buf = <-free:
			case <-stop:
				return
			case <-l.closed:
				sever()
				return
			}
		}
		n, err := src.Read(buf)
		if n > 0 {
			o := l.obs.Load()
			o.in(time.Since(l.start), dir, n)
			fifo <- chunk{deliverAt: p.admitStream(n), buf: buf[:n]}
			o.observeQueue(p)
			buf = nil
		}
		if err != nil {
			return
		}
		for {
			wait := p.backlog() - readAhead
			if l.linkDown() {
				// Stop reading: the kernel's flow control pushes back on
				// the sender, exactly like a dish losing its satellite
				// mid-transfer.
				wait = blackoutPoll
			}
			if wait <= 0 {
				break
			}
			if !l.sleep(tm, wait, stop) {
				sever()
				return
			}
		}
	}
}

// deliver is the pump's writing half. It writes each queued chunk at its
// paced delivery time, after any blackout has passed, and recycles its
// buffer. Once a write fails or the link closes it severs the pump and
// accounts every chunk it still receives as a "closed" drop, until the
// reader closes the FIFO.
func (l *streamLink) deliver(dst net.Conn, dir string, fifo <-chan chunk, free chan<- []byte, stop <-chan struct{}, sever func()) {
	tm := idleTimer()
	closed := l.closed
	alive := true
	for {
		var c chunk
		select {
		case next, ok := <-fifo:
			if !ok {
				return
			}
			c = next
		case <-closed:
			closed, alive = nil, false
			sever()
			continue
		}
		rest := c.buf
		if alive && l.hold(c.deliverAt, tm, stop) {
			w, err := dst.Write(rest)
			if w > 0 {
				l.obs.Load().delivered(time.Since(l.start), dir, w)
			}
			rest = rest[w:]
			alive = err == nil
		} else {
			alive = false
		}
		if !alive {
			sever()
		}
		if len(rest) > 0 {
			l.obs.Load().drop(time.Since(l.start), dir, len(rest), "closed")
		}
		free <- c.buf[:cap(c.buf)]
	}
}

// hold waits until a chunk's paced delivery time and then, during a
// blackout, until the link comes back. It reports false when the pump
// is severed or the link closes first.
func (l *streamLink) hold(deliverAt time.Time, tm *time.Timer, stop <-chan struct{}) bool {
	if d := time.Until(deliverAt); d > 0 && !l.sleep(tm, d, stop) {
		return false
	}
	for l.linkDown() {
		if !l.sleep(tm, blackoutPoll, stop) {
			return false
		}
	}
	return true
}

func (l *streamLink) linkDown() bool {
	return l.gate != nil && l.gate.LinkDown(time.Since(l.start))
}

// sleep waits d on the idle timer tm and reports false if stop or the
// link's closed channel fires first. tm is idle again on return.
func (l *streamLink) sleep(tm *time.Timer, d time.Duration, stop <-chan struct{}) bool {
	tm.Reset(d)
	select {
	case <-tm.C:
		return true
	case <-stop:
	case <-l.closed:
	}
	if !tm.Stop() {
		<-tm.C
	}
	return false
}

// idleTimer returns a stopped timer with an empty channel, ready for
// Reset.
func idleTimer() *time.Timer {
	tm := time.NewTimer(time.Hour)
	tm.Stop()
	return tm
}
