package netem

import (
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"satcell/internal/testutil"
)

// settleGoroutines waits for the goroutine count to drop back to (near)
// the baseline, tolerating runtime background goroutines. Returns the
// final count.
func settleGoroutines(baseline int) int {
	var n int
	for i := 0; i < 100; i++ {
		n = runtime.NumGoroutine()
		if n <= baseline+2 {
			return n
		}
		time.Sleep(20 * time.Millisecond)
	}
	return n
}

// TestUDPRelayCloseRace closes a UDP relay while several senders are
// pushing datagrams through delayed (paced) deliveries. The timers
// scheduled by deliverLater race with Close's stopAll; under -race this
// catches unsynchronised access to the timer registry, the client map,
// and the sockets. It also checks the relay does not leak goroutines.
func TestUDPRelayCloseRace(t *testing.T) {
	baseline := runtime.NumGoroutine()
	server := echoUDPServer(t)
	defer server.Close()

	for round := 0; round < 5; round++ {
		// 30ms one-way delay guarantees in-flight delayed deliveries at
		// the moment Close runs.
		relay, err := NewUDPRelay("127.0.0.1:0", server.LocalAddr().String(),
			ConstantShape(50, 30*time.Millisecond, 0),
			ConstantShape(50, 30*time.Millisecond, 0), int64(round))
		if err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		stop := make(chan struct{})
		for s := 0; s < 4; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				conn, err := net.DialUDP("udp", nil, relay.Addr())
				if err != nil {
					return
				}
				defer conn.Close()
				pkt := make([]byte, 512)
				buf := make([]byte, 2048)
				conn.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
				for {
					select {
					case <-stop:
						return
					default:
					}
					conn.Write(pkt)
					conn.Read(buf) // drain echoes; errors are fine
				}
			}()
		}

		// Let deliveries pile up mid-flight, then close concurrently
		// with the senders still running.
		time.Sleep(40 * time.Millisecond)
		if err := relay.Close(); err != nil {
			t.Fatalf("round %d: Close: %v", round, err)
		}
		close(stop)
		wg.Wait()
		// Close again races nothing and stays idempotent.
		if err := relay.Close(); err != nil {
			t.Fatal(err)
		}
	}

	testutil.SettleGoroutines(t, baseline)
}

// TestTCPRelayCloseRace closes a TCP relay while pumps are mid-transfer
// on several connections, racing Close's listener shutdown and the
// closed-channel select in pump against active reads and paced writes.
func TestTCPRelayCloseRace(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, c)
		}
	}()

	for round := 0; round < 5; round++ {
		// Tight rate cap keeps bytes queued inside the pumps when Close
		// lands.
		relay, err := NewTCPRelay("127.0.0.1:0", ln.Addr().String(),
			ConstantShape(8, 2*time.Millisecond, 0),
			ConstantShape(8, 2*time.Millisecond, 0))
		if err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		stop := make(chan struct{})
		for s := 0; s < 3; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				conn, err := net.Dial("tcp", relay.Addr().String())
				if err != nil {
					return
				}
				defer conn.Close()
				buf := make([]byte, 16<<10)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := conn.Write(buf); err != nil {
						return // relay closed under us: expected
					}
				}
			}()
		}

		time.Sleep(30 * time.Millisecond)
		if err := relay.Close(); err != nil {
			t.Fatalf("round %d: Close: %v", round, err)
		}
		close(stop)
		wg.Wait()
		if err := relay.Close(); err != nil {
			t.Fatal(err)
		}
	}

	testutil.SettleGoroutines(t, baseline)
}

// TestTCPRelayCloseSeversIdleConnection closes a relay whose only
// connection carries no bytes: both pumps sit in reads, and Close must
// still sever them and return.
func TestTCPRelayCloseSeversIdleConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			accepted <- c
		}
	}()
	relay, err := NewTCPRelay("127.0.0.1:0", ln.Addr().String(),
		ConstantShape(10, 0, 0), ConstantShape(10, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", relay.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer (<-accepted).Close() // the relay has dialed upstream

	closed := make(chan error, 1)
	go func() { closed <- relay.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on an idle connection")
	}
}

// TestUDPRelayTimerRegistryStopsPending verifies a closed relay cancels
// queued deliveries: datagrams admitted with a long delay must never
// reach the server once Close has run.
func TestUDPRelayTimerRegistryStopsPending(t *testing.T) {
	got := make(chan struct{}, 64)
	server, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	go func() {
		buf := make([]byte, 2048)
		for {
			if _, _, err := server.ReadFromUDP(buf); err != nil {
				return
			}
			got <- struct{}{}
		}
	}()

	relay, err := NewUDPRelay("127.0.0.1:0", server.LocalAddr().String(),
		ConstantShape(100, 300*time.Millisecond, 0), Shape{}, 9)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, relay.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 16; i++ {
		conn.Write(make([]byte, 256))
	}
	// Give the relay time to read + schedule, then close before the
	// 300ms delivery delay elapses.
	time.Sleep(50 * time.Millisecond)
	if err := relay.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
		t.Fatal("delivery fired after Close")
	case <-time.After(500 * time.Millisecond):
	}
}
