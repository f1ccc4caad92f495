// Chaos suite: the measurement tools run against live relays while the
// fault subsystem blacks out links, kills and restarts relays on their
// own ports, refuses dials and mangles datagrams — the failure modes a
// drive test meets in tunnels and at reallocation epochs. Every test
// asserts graceful degradation (partial results, never a wedged run)
// and checks for goroutine leaks. Run via `make chaos` or
// `go test -race -run Chaos ./internal/faults/`.
package faults

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"satcell/internal/meas/iperf"
	"satcell/internal/meas/udpping"
	"satcell/internal/netem"
	"satcell/internal/testutil"
)

// chaosSettle waits for the goroutine count to return to (near) the
// baseline and fails the test on a leak.
func chaosSettle(t *testing.T, baseline int) {
	t.Helper()
	var n int
	for i := 0; i < 150; i++ {
		n = runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", baseline, n)
}

// TestChaosIperfTCPBlackouts runs a TCP download through a relay whose
// link blacks out twice mid-test. TCP stalls and resumes (the kernel
// retransmits under the relay), so the run must finish with a usable
// partial or full result — never an error, never a hang.
func TestChaosIperfTCPBlackouts(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, err := iperf.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	in := NewInjector(Schedule{
		Seed: 1,
		Blackouts: []Window{
			{Start: 300 * time.Millisecond, Dur: 250 * time.Millisecond},
			{Start: 1100 * time.Millisecond, Dur: 250 * time.Millisecond},
		},
	})
	relay, err := netem.NewTCPRelayFaulty("127.0.0.1:0", srv.Addr().String(),
		netem.ConstantShape(40, 2*time.Millisecond, 0),
		netem.ConstantShape(40, 2*time.Millisecond, 0), in)
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	res, err := iperf.Run(context.Background(), iperf.ClientConfig{
		Addr: relay.Addr().String(), Proto: iperf.TCP, Dir: iperf.Download,
		Duration: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("blackouts must degrade, not error: %v", err)
	}
	if res.Outcome == iperf.Failed {
		t.Fatalf("Outcome = %v with a live link between windows", res.Outcome)
	}
	if res.TotalMbps <= 0 {
		t.Fatal("no goodput measured between blackouts")
	}
	if in.Stats().BlackoutDrops == 0 {
		t.Fatal("injector never saw the blackout windows")
	}

	relay.Close()
	srv.Close()
	testutil.SettleGoroutines(t, baseline)
}

// TestChaosIperfUDPBlackouts runs a UDP download through a relay that
// swallows datagrams for ~25% of the test: the measured loss must show
// the outage, and the result must still carry the surviving seconds.
func TestChaosIperfUDPBlackouts(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, err := iperf.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	in := NewInjector(Schedule{
		Seed:      2,
		Horizon:   2 * time.Second,
		Blackouts: []Window{{Start: 700 * time.Millisecond, Dur: 500 * time.Millisecond}},
	})
	relay, err := netem.NewUDPRelayFaulty("127.0.0.1:0", srv.Addr().String(),
		netem.ConstantShape(200, time.Millisecond, 0),
		netem.ConstantShape(200, time.Millisecond, 0), 3, in)
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	res, err := iperf.Run(context.Background(), iperf.ClientConfig{
		Addr: relay.Addr().String(), Proto: iperf.UDP, Dir: iperf.Download,
		Duration: 2 * time.Second, RateMbps: 10,
	})
	if err != nil {
		t.Fatalf("blackout must degrade, not error: %v", err)
	}
	if res.Received == 0 {
		t.Fatal("nothing received outside the blackout window")
	}
	if res.LossRate <= 0.05 {
		t.Fatalf("LossRate = %v, a 25%% blackout must show up as loss", res.LossRate)
	}
	if res.LossRate >= 0.9 {
		t.Fatalf("LossRate = %v, the link was up 75%% of the test", res.LossRate)
	}
	if in.Stats().BlackoutDrops == 0 {
		t.Fatal("injector never dropped a datagram")
	}

	relay.Close()
	srv.Close()
	testutil.SettleGoroutines(t, baseline)
}

// TestChaosUDPPingRelayRestart kills the relay mid-ping and restarts it
// on the same port via Supervise: probes during the outage are lost,
// probes after the restore answer again, and the run returns a partial
// Result with loss strictly between 0 and 1.
func TestChaosUDPPingRelayRestart(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, err := udpping.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	relay, err := netem.NewUDPRelay("127.0.0.1:0", srv.Addr().String(),
		netem.ConstantShape(100, time.Millisecond, 0),
		netem.ConstantShape(100, time.Millisecond, 0), 4)
	if err != nil {
		t.Fatal(err)
	}
	addr := relay.Addr().String()

	var mu sync.Mutex // guards relay across supervisor + test goroutine
	sup := Supervise(
		[]Window{{Start: 400 * time.Millisecond, Dur: 500 * time.Millisecond}},
		func() {
			mu.Lock()
			relay.Close()
			mu.Unlock()
		},
		func() {
			r2, err := netem.NewUDPRelay(addr, srv.Addr().String(),
				netem.ConstantShape(100, time.Millisecond, 0),
				netem.ConstantShape(100, time.Millisecond, 0), 4)
			if err != nil {
				return // port momentarily busy: probes stay lost
			}
			mu.Lock()
			relay = r2
			mu.Unlock()
		})

	res, err := udpping.Run(context.Background(), udpping.Config{
		Addr: addr, Count: 16, Interval: 100 * time.Millisecond,
		Timeout: 500 * time.Millisecond,
	})
	sup.Stop()
	if err != nil {
		t.Fatalf("relay restart must degrade, not error: %v", err)
	}
	if kills, restores := counts(sup); kills != 1 || restores != 1 {
		t.Fatalf("kills/restores = %d/%d", kills, restores)
	}
	if res.Sent != 16 {
		t.Fatalf("Sent = %d, want 16", res.Sent)
	}
	if res.Received == 0 {
		t.Fatal("probes outside the outage should have answered")
	}
	if lr := res.LossRate(); lr <= 0 || lr >= 1 {
		t.Fatalf("LossRate = %v, want partial loss from the restart window", lr)
	}

	mu.Lock()
	relay.Close()
	mu.Unlock()
	srv.Close()
	testutil.SettleGoroutines(t, baseline)
}

// TestChaosIperfTCPReconnectAfterRestart kills the TCP relay, then
// restores it on the same port while a client with dial retries keeps
// attempting: the jittered backoff must carry the test across the
// outage and produce data once the relay is back.
func TestChaosIperfTCPReconnectAfterRestart(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, err := iperf.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	relay, err := netem.NewTCPRelay("127.0.0.1:0", srv.Addr().String(),
		netem.ConstantShape(40, time.Millisecond, 0),
		netem.ConstantShape(40, time.Millisecond, 0))
	if err != nil {
		t.Fatal(err)
	}
	addr := relay.Addr().String()

	killed := make(chan struct{})
	var mu sync.Mutex
	sup := Supervise(
		[]Window{{Start: 0, Dur: 500 * time.Millisecond}},
		func() {
			mu.Lock()
			relay.Close()
			mu.Unlock()
			close(killed)
		},
		func() {
			r2, err := netem.NewTCPRelay(addr, srv.Addr().String(),
				netem.ConstantShape(40, time.Millisecond, 0),
				netem.ConstantShape(40, time.Millisecond, 0))
			if err != nil {
				return
			}
			mu.Lock()
			relay = r2
			mu.Unlock()
		})
	defer sup.Stop()

	<-killed // start dialing only once the relay is certainly down
	res, err := iperf.Run(context.Background(), iperf.ClientConfig{
		Addr: addr, Proto: iperf.TCP, Dir: iperf.Download,
		Duration:    500 * time.Millisecond,
		DialRetries: 10, RetryBackoff: 100 * time.Millisecond, Seed: 6,
	})
	if err != nil {
		t.Fatalf("retries should have outlasted the restart: %v", err)
	}
	if res.TotalMbps <= 0 {
		t.Fatal("no data after reconnect")
	}

	sup.Stop()
	mu.Lock()
	relay.Close()
	mu.Unlock()
	srv.Close()
	testutil.SettleGoroutines(t, baseline)
}

// TestChaosDialFailWindowRefusesSessions pings through a UDP relay that
// refuses new sessions for the first 300 ms: the early probes die, the
// session established after the window answers the rest.
func TestChaosDialFailWindowRefusesSessions(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, err := udpping.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	in := NewInjector(Schedule{
		Seed:      7,
		DialFails: []Window{{Start: 0, Dur: 300 * time.Millisecond}},
	})
	relay, err := netem.NewUDPRelayFaulty("127.0.0.1:0", srv.Addr().String(),
		netem.ConstantShape(100, time.Millisecond, 0),
		netem.ConstantShape(100, time.Millisecond, 0), 8, in)
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	res, err := udpping.Run(context.Background(), udpping.Config{
		Addr: relay.Addr().String(), Count: 10, Interval: 80 * time.Millisecond,
		Timeout: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Received == 0 {
		t.Fatal("post-window probes should have a session")
	}
	if res.Received == res.Sent {
		t.Fatal("dial-fail window should have cost the early probes")
	}
	if in.Stats().DialsRefused == 0 {
		t.Fatal("injector never refused a session")
	}

	relay.Close()
	srv.Close()
	testutil.SettleGoroutines(t, baseline)
}

// TestChaosDatagramCorruptionPath runs pings through a relay with heavy
// corruption/truncation: mangled probes are discarded by the tools'
// magic checks (loss, not crashes), intact ones still answer, and the
// injector's counters show the datagram path was exercised end to end.
func TestChaosDatagramCorruptionPath(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, err := udpping.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	in := NewInjector(Schedule{Seed: 8, CorruptProb: 0.4, TruncateProb: 0.2})
	relay, err := netem.NewUDPRelayFaulty("127.0.0.1:0", srv.Addr().String(),
		netem.ConstantShape(100, time.Millisecond, 0),
		netem.ConstantShape(100, time.Millisecond, 0), 9, in)
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	res, err := udpping.Run(context.Background(), udpping.Config{
		Addr: relay.Addr().String(), Count: 20, Interval: 20 * time.Millisecond,
		Timeout: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Received == 0 {
		t.Fatal("some probes should survive 40% corruption")
	}
	st := in.Stats()
	if st.Corrupted == 0 && st.Truncated == 0 {
		t.Fatalf("datagram faults never fired: %+v", st)
	}

	relay.Close()
	srv.Close()
	testutil.SettleGoroutines(t, baseline)
}

// TestChaosUDPUploadThroughBlackout drives a UDP upload while the link
// blacks out mid-test: write errors are tolerated, the stats exchange
// retries once the window passes, and the loss reflects the outage.
func TestChaosUDPUploadThroughBlackout(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, err := iperf.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	in := NewInjector(Schedule{
		Seed:      10,
		Blackouts: []Window{{Start: 400 * time.Millisecond, Dur: 400 * time.Millisecond}},
	})
	relay, err := netem.NewUDPRelayFaulty("127.0.0.1:0", srv.Addr().String(),
		netem.ConstantShape(200, time.Millisecond, 0),
		netem.ConstantShape(200, time.Millisecond, 0), 11, in)
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	res, err := iperf.Run(context.Background(), iperf.ClientConfig{
		Addr: relay.Addr().String(), Proto: iperf.UDP, Dir: iperf.Upload,
		Duration: 1200 * time.Millisecond, RateMbps: 10,
	})
	if err != nil {
		t.Fatalf("blackout must degrade, not error: %v", err)
	}
	if res.Outcome == iperf.Failed {
		t.Fatal("stats exchange should recover after the window")
	}
	if res.Received == 0 || res.LossRate <= 0 {
		t.Fatalf("received=%d loss=%v: the outage should cost datagrams but not all",
			res.Received, res.LossRate)
	}

	relay.Close()
	srv.Close()
	testutil.SettleGoroutines(t, baseline)
}
