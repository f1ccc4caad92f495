package netem

import (
	"net"
	"sync"
	"time"
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
	link := &streamLink{start: time.Now(), closed: make(chan struct{})}
	var once sync.Once
	stop = func() {
		once.Do(func() {
			close(link.closed)
			innerA.Close()
			innerB.Close()
			appA.Close()
			appB.Close()
		})
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		link.pump(innerA, innerB, aToB, "up")
	}()
	go func() {
		defer wg.Done()
		link.pump(innerB, innerA, bToA, "down")
	}()
	go func() {
		wg.Wait()
		stop()
	}()
	return appA, appB, stop
}
