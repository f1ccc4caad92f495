package netem

import (
	"net"
	"sync"
	"testing"
	"time"

	"satcell/internal/channel"
	"satcell/internal/testutil"
	"satcell/internal/vclock"
)

func TestConstantShape(t *testing.T) {
	s := ConstantShape(50, 20*time.Millisecond, 0.1)
	if s.RateMbps(time.Second) != 50 || s.Delay(0) != 20*time.Millisecond || s.LossProb(0) != 0.1 {
		t.Fatal("ConstantShape values wrong")
	}
}

func TestFromTrace(t *testing.T) {
	tr := &channel.Trace{Network: channel.StarlinkMobility}
	tr.Samples = []channel.Sample{
		{At: 0, DownMbps: 100, UpMbps: 10, RTT: 60 * time.Millisecond, LossDown: 0.01, LossUp: 0.02},
		{At: time.Second, DownMbps: 50, UpMbps: 5, RTT: 40 * time.Millisecond},
	}
	down := FromTrace(tr, false)
	up := FromTrace(tr, true)
	if down.RateMbps(0) != 100 || up.RateMbps(0) != 10 {
		t.Fatal("rate lookup wrong")
	}
	if down.Delay(0) != 30*time.Millisecond {
		t.Fatal("delay should be RTT/2")
	}
	if down.LossProb(0) != 0.01 || up.LossProb(0) != 0.02 {
		t.Fatal("loss lookup wrong")
	}
	if down.RateMbps(1500*time.Millisecond) != 50 {
		t.Fatal("time indexing wrong")
	}
	// Looping past the end.
	if down.RateMbps(2500*time.Millisecond) != 100 {
		t.Fatal("loop lookup wrong")
	}
}

func TestPacerSpacing(t *testing.T) {
	p := newPacer(ConstantShape(8, 0, 0), 1, vclock.Wall) // 8 Mbps = 1 MB/s
	t0 := time.Now()
	var last time.Time
	for i := 0; i < 10; i++ {
		at, drop := p.admit(10000) // 10 kB -> 10 ms each at 1 MB/s
		if drop {
			t.Fatal("unexpected drop")
		}
		last = at
	}
	span := last.Sub(t0)
	if span < 90*time.Millisecond || span > 130*time.Millisecond {
		t.Fatalf("10 x 10kB at 1MB/s should span ~100ms, got %v", span)
	}
}

func TestPacerLoss(t *testing.T) {
	p := newPacer(ConstantShape(1000, 0, 0.5), 7, vclock.Wall)
	drops := 0
	for i := 0; i < 2000; i++ {
		if _, drop := p.admit(100); drop {
			drops++
		}
	}
	if drops < 850 || drops > 1150 {
		t.Fatalf("drops = %d of 2000 at p=0.5", drops)
	}
}

// echoUDPServer echoes datagrams until closed.
func echoUDPServer(t *testing.T) *net.UDPConn {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		buf := make([]byte, 64<<10)
		for {
			n, from, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			conn.WriteToUDP(buf[:n], from)
		}
	}()
	return conn
}

func TestUDPRelayRoundTripAndDelay(t *testing.T) {
	server := echoUDPServer(t)
	defer server.Close()
	relay, err := NewUDPRelay("127.0.0.1:0", server.LocalAddr().String(),
		ConstantShape(100, 25*time.Millisecond, 0),
		ConstantShape(100, 25*time.Millisecond, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	client, err := net.DialUDP("udp", nil, relay.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	msg := []byte("ping-payload")
	start := time.Now()
	if _, err := client.Write(msg); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1500)
	n, err := client.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	rtt := time.Since(start)
	if string(buf[:n]) != string(msg) {
		t.Fatal("payload corrupted")
	}
	// 2 x 25ms one-way delay; allow generous scheduling slack.
	if rtt < 50*time.Millisecond || rtt > 300*time.Millisecond {
		t.Fatalf("RTT = %v, want ~50ms+", rtt)
	}
}

func TestUDPRelayShapesRate(t *testing.T) {
	server := echoUDPServer(t)
	defer server.Close()
	// Downlink (echo direction) limited to 4 Mbps.
	relay, err := NewUDPRelay("127.0.0.1:0", server.LocalAddr().String(),
		ConstantShape(1000, 0, 0), ConstantShape(4, 0, 0), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	client, err := net.DialUDP("udp", nil, relay.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Blast 1200-byte datagrams for 1 second; count echoed bytes.
	payload := make([]byte, 1200)
	done := make(chan int64)
	go func() {
		var got int64
		buf := make([]byte, 2048)
		for {
			client.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
			n, err := client.Read(buf)
			if err != nil {
				done <- got
				return
			}
			got += int64(n)
		}
	}()
	end := time.Now().Add(1 * time.Second)
	for time.Now().Before(end) {
		client.Write(payload)
		time.Sleep(500 * time.Microsecond) // offered ~19 Mbps
	}
	got := <-done
	mbps := float64(got*8) / 1.5 / 1e6 // bytes over ~1.5s window
	if mbps > 6 {
		t.Fatalf("downlink shaped at 4 Mbps but measured %v", mbps)
	}
	if mbps < 1.5 {
		t.Fatalf("relay barely passed traffic: %v Mbps", mbps)
	}
}

// TestTCPRelayShapesThroughput counts bytes where they arrive: a 16 Mbps
// relay must deliver close to 16 Mbps at the sink, however much the
// sender's socket buffers absorb.
func TestTCPRelayShapesThroughput(t *testing.T) {
	mbps := sinkMbps(t, ConstantShape(16, 5*time.Millisecond, 0), 200*time.Millisecond, time.Second)
	t.Logf("sink rate %.2f Mbps", mbps)
	if mbps < 14 || mbps > 17 {
		t.Fatalf("sink received %.1f Mbps through a 16 Mbps relay, want [14, 17]", mbps)
	}
}

// sinkMbps pushes bytes through a TCP relay's uplink, shaped by up, as
// fast as a sender can write them, and returns the rate at which the
// sink received them over window, starting warmup after the first byte
// arrived. Counting at the sink keeps the sender's socket buffers from
// inflating the rate.
func sinkMbps(t *testing.T, up Shape, warmup, window time.Duration) float64 {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan int64, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			got <- 0
			return
		}
		defer c.Close()
		buf := make([]byte, 64<<10)
		var first time.Time
		var n int64
		for {
			c.SetReadDeadline(time.Now().Add(2 * time.Second))
			k, err := c.Read(buf)
			if err != nil {
				got <- 0
				return
			}
			now := time.Now()
			if first.IsZero() {
				first = now
			}
			switch since := now.Sub(first); {
			case since > warmup+window:
				got <- n
				return
			case since > warmup:
				n += int64(k)
			}
		}
	}()

	relay, err := NewTCPRelay("127.0.0.1:0", ln.Addr().String(), up, ConstantShape(100, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	conn, err := net.Dial("tcp", relay.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go blast(conn)
	n := <-got
	if n == 0 {
		t.Fatal("sink received nothing through the relay")
	}
	return float64(n*8) / window.Seconds() / 1e6
}

// TestTCPRelayFillsBandwidthDelayProduct runs a link whose
// bandwidth-delay product (100 Mbps x 20 ms = 250 kB) is many pacing
// chunks: the relay must keep that much in flight to deliver its rate.
func TestTCPRelayFillsBandwidthDelayProduct(t *testing.T) {
	mbps := sinkMbps(t, ConstantShape(100, 20*time.Millisecond, 0), 300*time.Millisecond, time.Second)
	t.Logf("sink rate %.2f Mbps", mbps)
	if mbps < 70 || mbps > 105 {
		t.Fatalf("sink received %.1f Mbps through a 100 Mbps / 20 ms relay, want [70, 105]", mbps)
	}
}

func TestRelayCloseIdempotent(t *testing.T) {
	server := echoUDPServer(t)
	defer server.Close()
	relay, err := NewUDPRelay("127.0.0.1:0", server.LocalAddr().String(), Shape{}, Shape{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := relay.Close(); err != nil {
		t.Fatal(err)
	}
	if err := relay.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPacerShapesExactlyOnSimClock pins the shaping rate in virtual
// time: every admitted unit's delivery instant is computed, not
// measured, so the assertion is exact — no tolerance band, no flaking
// under CPU load. This replaces the old wall-clock liveness floor
// (mbps > 1), which tripped whenever CI starved the writer goroutine.
func TestPacerShapesExactlyOnSimClock(t *testing.T) {
	sim := testutil.NewSim()
	p := newPacer(ConstantShape(8, 10*time.Millisecond, 0), 1, sim)
	// 1000-byte units serialize in exactly 1ms at 8 Mbps: unit k leaves
	// the queue at k ms and lands after the 10ms propagation delay.
	start := sim.Now()
	for k := 1; k <= 1000; k++ {
		deliverAt := p.admitStream(1000)
		want := start.Add(time.Duration(k)*time.Millisecond + 10*time.Millisecond)
		if !deliverAt.Equal(want) {
			t.Fatalf("unit %d delivered at %v, want %v", k, deliverAt.Sub(start), want.Sub(start))
		}
	}
	// 1000 units x 8000 bits over exactly 1 virtual second = 8 Mbps on
	// the nose.
	if backlog := p.backlog(); backlog != time.Second {
		t.Fatalf("serialization backlog = %v, want exactly 1s", backlog)
	}
}

// TestPacerDroptailExactOnSimClock pins the droptail horizon: datagram
// admission fails exactly when the virtual queue passes maxQueueDelay.
func TestPacerDroptailExactOnSimClock(t *testing.T) {
	sim := testutil.NewSim()
	p := newPacer(ConstantShape(8, 0, 0), 1, sim)
	// Unit k is admitted while the pre-admission backlog is (k-1) ms;
	// the first drop must come at k = 402: backlog 401ms > 400ms.
	for k := 1; k <= 401; k++ {
		if _, drop := p.admit(1000); drop {
			t.Fatalf("unit %d dropped with backlog %v <= maxQueueDelay", k, time.Duration(k-1)*time.Millisecond)
		}
	}
	if _, drop := p.admit(1000); !drop {
		t.Fatal("unit 402 admitted past the droptail horizon")
	}
}

func TestPipeShapesAndDelivers(t *testing.T) {
	a, b, stop := pipe(ConstantShape(8, 10*time.Millisecond, 0), ConstantShape(100, 10*time.Millisecond, 0))
	defer stop()

	// Writer on a; reader on b counts bytes for ~1s.
	done := make(chan int64)
	go func() {
		var got int64
		buf := make([]byte, 32<<10)
		b.SetReadDeadline(time.Now().Add(1200 * time.Millisecond))
		for {
			n, err := b.Read(buf)
			got += int64(n)
			if err != nil {
				done <- got
				return
			}
		}
	}()
	start := time.Now()
	buf := make([]byte, 8<<10)
	for time.Since(start) < time.Second {
		if _, err := a.Write(buf); err != nil {
			break
		}
	}
	a.Close()
	got := <-done
	mbps := float64(got*8) / time.Since(start).Seconds() / 1e6
	// Only the upper bound is a wall-clock assertion: shaping can slow
	// delivery but never speed it up, however loaded the host. The
	// exact-rate check lives in TestPacerShapesExactlyOnSimClock, where
	// virtual time makes it deterministic.
	if mbps > 14 {
		t.Fatalf("pipe shaped at 8 Mbps but measured %.1f", mbps)
	}
	if got == 0 {
		t.Fatal("pipe delivered nothing")
	}
}

func TestPipeBidirectionalAndLatency(t *testing.T) {
	a, b, stop := pipe(ConstantShape(100, 20*time.Millisecond, 0), ConstantShape(100, 20*time.Millisecond, 0))
	defer stop()

	// Echo server on b.
	go func() {
		buf := make([]byte, 256)
		for {
			n, err := b.Read(buf)
			if err != nil {
				return
			}
			if _, err := b.Write(buf[:n]); err != nil {
				return
			}
		}
	}()
	msg := []byte("hello-sat")
	start := time.Now()
	if _, err := a.Write(msg); err != nil {
		t.Fatal(err)
	}
	reply := make([]byte, 256)
	a.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := a.Read(reply)
	if err != nil {
		t.Fatal(err)
	}
	rtt := time.Since(start)
	if string(reply[:n]) != string(msg) {
		t.Fatal("payload corrupted")
	}
	if rtt < 40*time.Millisecond || rtt > 500*time.Millisecond {
		t.Fatalf("pipe RTT %v, want >= 40ms", rtt)
	}
}

func TestPipeStopIdempotent(t *testing.T) {
	a, _, stop := pipe(Shape{}, Shape{})
	stop()
	stop()
	if _, err := a.Write([]byte("x")); err == nil {
		t.Fatal("write after stop should fail")
	}
}

// pipe returns two connected in-process net.Conn endpoints joined by
// the TCP relay's stream pumps, with independent shaping per direction:
// bytes written to a arrive at b shaped by aToB, and vice versa. Close
// either endpoint (or call stop) to tear the pipe down. It lets the
// pipe tests drive the pumps without opening sockets.
func pipe(aToB, bToA Shape) (a, b net.Conn, stop func()) {
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
