package netem

import (
	"net"
	"sync"
	"time"

	"satcell/internal/vclock"
)

// Pipe returns two connected in-process net.Conn endpoints with
// independent shaping per direction: bytes written to a arrive at b
// shaped by aToB, and vice versa. Close either endpoint (or call stop)
// to tear the pipe down. Like the TCP relay, byte streams experience
// rate and delay but not loss (backpressure instead of drops).
//
// This is the unit-test-friendly sibling of the relays: real client
// and server code can talk across an emulated Starlink link without
// opening sockets.
func Pipe(aToB, bToA Shape) (a, b net.Conn, stop func()) {
	appA, innerA := net.Pipe()
	appB, innerB := net.Pipe()
	done := make(chan struct{})
	var once sync.Once
	stop = func() {
		once.Do(func() {
			close(done)
			innerA.Close()
			innerB.Close()
			appA.Close()
			appB.Close()
		})
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go pipePump(innerA, innerB, aToB, done, &wg)
	go pipePump(innerB, innerA, bToA, done, &wg)
	go func() {
		wg.Wait()
		stop()
	}()
	return appA, appB, stop
}

// pipePump copies src to dst with shaped pacing until either side
// closes or done fires.
func pipePump(src, dst net.Conn, shape Shape, done <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	p := newPacer(shape, 1, vclock.Wall)
	buf := make([]byte, pacedChunk)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			deliverAt := p.admitStream(n)
			if d := deliverAt.Sub(time.Now()); d > 0 {
				select {
				case <-time.After(d):
				case <-done:
					return
				}
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}
