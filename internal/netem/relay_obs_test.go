package netem

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"satcell/internal/obs"
)

// dirTotals reads one direction's counters from the registry.
func dirTotals(reg *obs.Registry, prefix string) (in, out, drop int64) {
	return reg.Counter(prefix + ".in_bytes").Value(),
		reg.Counter(prefix + ".out_bytes").Value(),
		reg.Counter(prefix + ".drop_bytes").Value()
}

// waitInvariant polls until in_bytes == out_bytes + drop_bytes for the
// given direction (in-flight paced deliveries are the only legitimate
// transient difference) or the deadline passes.
func waitInvariant(t *testing.T, reg *obs.Registry, prefix string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		in, out, drop := dirTotals(reg, prefix)
		if in == out+drop {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: in_bytes=%d != out_bytes=%d + drop_bytes=%d (in flight never drained)",
				prefix, in, out, drop)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestUDPRelayCountersInvariant pushes traffic from several concurrent
// client sessions through a lossy instrumented relay and asserts the
// per-direction conservation invariant: every byte that entered the
// relay was either delivered or accounted to a drop cause. Run under
// -race this also exercises the counter and tracer paths from the
// client loop, the per-session server loops and the delivery timers at
// once.
func TestUDPRelayCountersInvariant(t *testing.T) {
	server := echoUDPServer(t)
	defer server.Close()

	reg := obs.NewRegistry()
	tr := obs.NewTracer(4096)
	// 30% loss forces the shaper drop path; 5ms delay keeps deliveries
	// in flight while counters are being bumped.
	relay, err := NewUDPRelay("127.0.0.1:0", server.LocalAddr().String(),
		ConstantShape(200, 5*time.Millisecond, 0.3),
		ConstantShape(200, 5*time.Millisecond, 0.3), 7)
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	relay.Instrument(reg, tr)

	const clients, perClient, pktSize = 6, 50, 512
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.DialUDP("udp", nil, relay.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			pkt := make([]byte, pktSize)
			buf := make([]byte, 2048)
			for i := 0; i < perClient; i++ {
				conn.Write(pkt)
				// Drain echoes opportunistically so the downlink flows.
				conn.SetReadDeadline(time.Now().Add(2 * time.Millisecond))
				conn.Read(buf)
			}
		}()
	}
	wg.Wait()

	// All uplink ingress must eventually be accounted.
	deadline := time.Now().Add(5 * time.Second)
	for {
		in, _, _ := dirTotals(reg, "relay.udp.up")
		if in == clients*perClient*pktSize || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	in, _, _ := dirTotals(reg, "relay.udp.up")
	if want := int64(clients * perClient * pktSize); in != want {
		t.Fatalf("up.in_bytes = %d, want %d (relay lost ingress accounting)", in, want)
	}
	waitInvariant(t, reg, "relay.udp.up")
	waitInvariant(t, reg, "relay.udp.down")

	// With 30% loss the shaper must have dropped something, and the
	// drops must be visible both in counters and in the event ring.
	_, _, drop := dirTotals(reg, "relay.udp.up")
	if drop == 0 {
		t.Fatal("no drops recorded despite 30% loss")
	}
	if got := reg.Counter("relay.udp.sessions").Value(); got != clients {
		t.Fatalf("sessions = %d, want %d", got, clients)
	}
	var drops, delivers, starts int
	for _, ev := range tr.Snapshot() {
		switch ev.Kind {
		case obs.EvDrop:
			drops++
		case obs.EvDeliver:
			delivers++
		case obs.EvSessionStart:
			starts++
		}
	}
	if drops == 0 || delivers == 0 {
		t.Fatalf("event ring: drops=%d delivers=%d, want both > 0", drops, delivers)
	}
	if starts != clients {
		t.Fatalf("event ring: session starts = %d, want %d", starts, clients)
	}

	// The sampled gauges answer through the registry snapshot.
	snap := reg.Snapshot()
	for _, k := range []string{"relay.udp.timers.pending", "relay.udp.clients",
		"relay.udp.up.backlog_ms", "relay.udp.down.backlog_ms"} {
		if _, ok := snap[k]; !ok {
			t.Fatalf("snapshot missing sampled gauge %q", k)
		}
	}
	if snap["relay.udp.clients"] != float64(clients) {
		t.Fatalf("clients gauge = %v, want %d", snap["relay.udp.clients"], clients)
	}
}

// TestUDPRelayUninstrumentedIsNoop checks the nil fast path: a relay
// without Instrument reports zero counters and records nothing, and the
// live path works unchanged.
func TestUDPRelayUninstrumentedIsNoop(t *testing.T) {
	server := echoUDPServer(t)
	defer server.Close()
	relay, err := NewUDPRelay("127.0.0.1:0", server.LocalAddr().String(),
		ConstantShape(100, 0, 0), ConstantShape(100, 0, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	conn, err := net.DialUDP("udp", nil, relay.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write(make([]byte, 128))
	buf := make([]byte, 1024)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err != nil {
		t.Fatalf("echo through uninstrumented relay: %v", err)
	}
	if c := relay.Counters(); c != (Counters{}) {
		t.Fatalf("uninstrumented counters = %+v, want zero", c)
	}
}

// TestTCPRelayCountersInvariant relays concurrent TCP transfers and
// checks byte conservation (streams have no drop path) plus session
// lifecycle events.
func TestTCPRelayCountersInvariant(t *testing.T) {
	// Upstream sink: accept, drain, close on EOF.
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
			go func() {
				buf := make([]byte, 32<<10)
				for {
					if _, err := c.Read(buf); err != nil {
						c.Close()
						return
					}
				}
			}()
		}
	}()

	reg := obs.NewRegistry()
	tr := obs.NewTracer(4096)
	relay, err := NewTCPRelay("127.0.0.1:0", ln.Addr().String(),
		ConstantShape(500, time.Millisecond, 0), ConstantShape(500, time.Millisecond, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	relay.Instrument(reg, tr)

	const conns, chunk, chunks = 4, 4096, 16
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := net.Dial("tcp", relay.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, chunk)
			for j := 0; j < chunks; j++ {
				if _, err := c.Write(buf); err != nil {
					t.Error(err)
					break
				}
			}
			c.Close()
		}()
	}
	wg.Wait()

	want := int64(conns * chunk * chunks)
	deadline := time.Now().Add(5 * time.Second)
	for {
		in, out, _ := dirTotals(reg, "relay.tcp.up")
		if in == want && out == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tcp up: in=%d out=%d, want both %d", in, out, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := reg.Counter("relay.tcp.sessions").Value(); got != conns {
		t.Fatalf("sessions = %d, want %d", got, conns)
	}
	var starts, ends int
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		starts, ends = 0, 0
		for _, ev := range tr.Snapshot() {
			switch ev.Kind {
			case obs.EvSessionStart:
				starts++
			case obs.EvSessionEnd:
				ends++
			}
		}
		if starts == conns && ends == conns {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("session events: starts=%d ends=%d, want %d each", starts, ends, conns)
}

// TestTCPRelayReceiverClosesFirst closes the downloading client while
// the relay holds a chunk for the link delay. The pump cannot deliver
// that chunk, and must account it as a "closed" drop, so the download
// direction still balances exactly: bytes in == bytes out + dropped.
func TestTCPRelayReceiverClosesFirst(t *testing.T) {
	const chunk = 1000
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		c.Write(make([]byte, chunk)) // one chunk, then silence
		served <- c
	}()

	reg := obs.NewRegistry()
	tr := obs.NewTracer(256)
	relay, err := NewTCPRelay("127.0.0.1:0", ln.Addr().String(),
		ConstantShape(100, 20*time.Millisecond, 0), ConstantShape(100, 300*time.Millisecond, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	relay.Instrument(reg, tr)

	c, err := net.Dial("tcp", relay.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// Close the client once the relay has read the chunk and is holding
	// it for the 300 ms downlink delay.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if in, _, _ := dirTotals(reg, "relay.tcp.down"); in == chunk {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("relay never read the upstream chunk")
		}
		time.Sleep(time.Millisecond)
	}
	c.Close()
	defer func() { (<-served).Close() }()

	waitInvariant(t, reg, "relay.tcp.down")
	if in, out, drop := dirTotals(reg, "relay.tcp.down"); out != 0 || drop != chunk {
		t.Fatalf("down: in=%d out=%d drop=%d, want the held chunk dropped (out 0, drop %d)", in, out, drop, chunk)
	}
	for _, ev := range tr.Snapshot() {
		if ev.Kind == obs.EvDrop && ev.Dir == "down" && ev.Detail == "closed" && ev.Size == chunk {
			return
		}
	}
	t.Fatal("no closed-cause drop event for the held chunk")
}

// countingSink accepts one connection and counts the bytes it reads;
// eof closes when the connection ends.
func countingSink(t *testing.T) (addr string, got *atomic.Int64, eof <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	got = new(atomic.Int64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 64<<10)
		for {
			n, err := c.Read(buf)
			got.Add(int64(n))
			if err != nil {
				return
			}
		}
	}()
	return ln.Addr().String(), got, done
}

// watchHeld samples how many bytes one relay direction holds — read but
// neither delivered nor dropped — until stop is called, which returns
// the largest sample. in is read before out and drop, so a sample never
// exceeds what the relay held when in was read.
func watchHeld(reg *obs.Registry, prefix string) (stop func() int64) {
	quit := make(chan struct{})
	peak := make(chan int64, 1)
	go func() {
		var max int64
		for {
			in := reg.Counter(prefix + ".in_bytes").Value()
			if held := in - reg.Counter(prefix+".out_bytes").Value() - reg.Counter(prefix+".drop_bytes").Value(); held > max {
				max = held
			}
			select {
			case <-quit:
				peak <- max
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	return func() int64 {
		close(quit)
		return <-peak
	}
}

// blast writes to c until a write fails.
func blast(c net.Conn) {
	buf := make([]byte, 32<<10)
	for {
		if _, err := c.Write(buf); err != nil {
			return
		}
	}
}

// waitFullFIFO waits until the relay's uplink holds at least
// pumpChunks-4 full chunks (in - out - drop bytes). On a 100 Mbps x
// 200 ms link the pump's FIFO fills within 84 ms and stays full, but a
// loaded host can deliver the first chunk before the reader has filled
// it, so the test polls the held bytes rather than timing anything.
func waitFullFIFO(t *testing.T, reg *obs.Registry) {
	t.Helper()
	const want = (pumpChunks - 4) * pacedChunk
	deadline := time.Now().Add(5 * time.Second)
	for {
		in, out, drop := dirTotals(reg, "relay.tcp.up")
		held := in - out - drop
		if held >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("relay uplink holds %d bytes after 5s, want >= %d", held, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// fifoCap is the most a pump direction may hold.
const fifoCap = pumpChunks * pacedChunk

// TestTCPRelayCountersInvariantCloseWithFullFIFO closes the relay while
// its uplink FIFO is full: 100 Mbps x 200 ms is more in flight than the
// chunk cap allows. Every queued chunk must be accounted a "closed"
// drop, and the relay must never hold more than its cap.
func TestTCPRelayCountersInvariantCloseWithFullFIFO(t *testing.T) {
	sink, _, _ := countingSink(t)
	reg := obs.NewRegistry()
	relay, err := NewTCPRelay("127.0.0.1:0", sink,
		ConstantShape(100, 200*time.Millisecond, 0), ConstantShape(100, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	relay.Instrument(reg, nil)
	peak := watchHeld(reg, "relay.tcp.up")

	c, err := net.Dial("tcp", relay.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go blast(c)
	waitFullFIFO(t, reg)
	relay.Close() // returns once every pump has exited

	if max := peak(); max > fifoCap {
		t.Fatalf("relay held %d bytes, cap %d", max, fifoCap)
	}
	in, out, drop := dirTotals(reg, "relay.tcp.up")
	if in != out+drop {
		t.Fatalf("up: in=%d != out=%d + drop=%d", in, out, drop)
	}
	// A few chunks may be between the writer and the reader's refill.
	if chunks := reg.Counter("relay.tcp.up.drop_pkts").Value(); chunks < pumpChunks-4 {
		t.Fatalf("up: %d chunks dropped at close, want the full FIFO (>= %d)", chunks, pumpChunks-4)
	}
}

// switchGate is a FaultGate whose link the test takes down and up.
type switchGate struct{ down atomic.Bool }

func (g *switchGate) LinkDown(time.Duration) bool  { return g.down.Load() }
func (g *switchGate) DialFails(time.Duration) bool { return false }
func (g *switchGate) Datagram(_ time.Duration, pkt []byte) ([]byte, bool) {
	return pkt, false
}

// TestTCPRelayCountersInvariantThroughBlackout blacks the link out while
// the uplink FIFO is full: the writer must hold every chunk and the
// reader must stop reading until the link returns, and then the whole
// transfer arrives with nothing dropped.
func TestTCPRelayCountersInvariantThroughBlackout(t *testing.T) {
	sink, got, eof := countingSink(t)
	reg := obs.NewRegistry()
	gate := &switchGate{}
	relay, err := NewTCPRelayFaulty("127.0.0.1:0", sink,
		ConstantShape(100, 200*time.Millisecond, 0), ConstantShape(100, 0, 0), gate)
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	relay.Instrument(reg, nil)
	peak := watchHeld(reg, "relay.tcp.up")

	c, err := net.Dial("tcp", relay.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	const total = 4 << 20
	sent := make(chan error, 1)
	go func() {
		_, err := c.Write(make([]byte, total))
		c.Close()
		sent <- err
	}()
	waitFullFIFO(t, reg)

	gate.down.Store(true)
	time.Sleep(100 * time.Millisecond) // let a write in progress finish
	in1, out1, _ := dirTotals(reg, "relay.tcp.up")
	time.Sleep(200 * time.Millisecond)
	in2, out2, _ := dirTotals(reg, "relay.tcp.up")
	gate.down.Store(false)
	if in2 != in1 || out2 != out1 {
		t.Fatalf("blackout moved bytes: in %d -> %d, out %d -> %d", in1, in2, out1, out2)
	}

	if err := <-sent; err != nil {
		t.Fatalf("sender: %v", err)
	}
	select {
	case <-eof:
	case <-time.After(10 * time.Second):
		t.Fatal("transfer never finished after the blackout")
	}
	relay.Close()
	if max := peak(); max > fifoCap {
		t.Fatalf("relay held %d bytes, cap %d", max, fifoCap)
	}
	in, out, drop := dirTotals(reg, "relay.tcp.up")
	if in != total || out != total || drop != 0 || got.Load() != total {
		t.Fatalf("up: in=%d out=%d drop=%d sink=%d, want %d in, out and at the sink, none dropped",
			in, out, drop, got.Load(), total)
	}
}

// TestUDPRelayRestartAccumulates mimics the supervisor's kill-and-
// restore: a replacement relay instrumented on the same registry keeps
// accumulating into the same counters instead of resetting them.
func TestUDPRelayRestartAccumulates(t *testing.T) {
	server := echoUDPServer(t)
	defer server.Close()
	reg := obs.NewRegistry()

	send := func(r *UDPRelay, n int) {
		t.Helper()
		conn, err := net.DialUDP("udp", nil, r.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		for i := 0; i < n; i++ {
			conn.Write(make([]byte, 100))
		}
		deadline := time.Now().Add(3 * time.Second)
		for reg.Counter("relay.udp.up.in_pkts").Value() < int64(n) && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
	}

	r1, err := NewUDPRelay("127.0.0.1:0", server.LocalAddr().String(),
		ConstantShape(100, 0, 0), ConstantShape(100, 0, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	r1.Instrument(reg, nil)
	addr := r1.Addr().String()
	send(r1, 5)
	r1.Close()

	r2, err := NewUDPRelay(addr, server.LocalAddr().String(),
		ConstantShape(100, 0, 0), ConstantShape(100, 0, 0), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	r2.Instrument(reg, nil)
	conn, err := net.DialUDP("udp", nil, r2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 5; i++ {
		conn.Write(make([]byte, 100))
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Counter("relay.udp.up.in_pkts").Value() == 10 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("in_pkts = %d after restart, want 10 (accumulated across relays)",
		reg.Counter("relay.udp.up.in_pkts").Value())
}

// BenchmarkRelayObsAccounting measures the pure instrumentation hot
// path (counter bumps + ring record) as seen per packet, isolating the
// cost the <5% end-to-end budget is made of.
func BenchmarkRelayObsAccounting(b *testing.B) {
	for _, mode := range []string{"noop", "live"} {
		b.Run(mode, func(b *testing.B) {
			var o *relayObs
			if mode == "live" {
				o = newRelayObs("relay.udp", obs.NewRegistry(), obs.NewTracer(8192))
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := time.Duration(i)
				o.in(e, "up", 1400)
				o.delivered(e, "up", 1400)
			}
		})
	}
}

// discardSink satisfies obs.TelemetrySink without I/O, isolating span
// bookkeeping cost from journal fsyncs.
type discardSink struct{}

func (discardSink) Append(any) error { return nil }

func (discardSink) AppendUnsynced(any) error { return nil }

// BenchmarkSpanStage proves the flight recorder's granularity contract:
// spans bracket stages, never packets, so the per-packet relay path with
// a recorder attached and a stage span open costs exactly what the bare
// path costs — and allocates nothing. Compare the bare and span variants'
// ns/op and allocs/op; they must be indistinguishable.
func BenchmarkSpanStage(b *testing.B) {
	for _, mode := range []string{"bare", "span"} {
		b.Run(mode, func(b *testing.B) {
			o := newRelayObs("relay.udp", obs.NewRegistry(), obs.NewTracer(8192))
			var span *obs.Span
			if mode == "span" {
				rec := obs.NewFlightRecorder(discardSink{}, 1)
				span = rec.Begin(obs.SpanStage, "relay-drill")
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := time.Duration(i)
				o.in(e, "up", 1400)
				o.delivered(e, "up", 1400)
			}
			span.End(obs.SpanOK, "")
		})
	}
}

// TestRelayPacketPathZeroAllocUnderSpan is the allocation guard behind
// BenchmarkSpanStage: with a flight recorder running and a stage span
// open, the per-packet accounting path must stay allocation-free.
func TestRelayPacketPathZeroAllocUnderSpan(t *testing.T) {
	rec := obs.NewFlightRecorder(discardSink{}, 1)
	span := rec.Begin(obs.SpanStage, "relay-drill")
	defer span.End(obs.SpanOK, "")
	o := newRelayObs("relay.udp", obs.NewRegistry(), obs.NewTracer(8192))
	var e time.Duration
	allocs := testing.AllocsPerRun(2000, func() {
		o.in(e, "up", 1400)
		o.delivered(e, "up", 1400)
		e += time.Microsecond
	})
	if allocs != 0 {
		t.Fatalf("per-packet path allocates %.1f/op with a span open, want 0", allocs)
	}
}
