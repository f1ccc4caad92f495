package vsession

import (
	"strings"
	"testing"
	"time"

	"satcell/internal/channel"
	"satcell/internal/faults"
	"satcell/internal/mptcp"
	"satcell/internal/netem"
)

func faultedConfig() Config {
	sched := &faults.Schedule{
		Blackouts: []faults.Window{{Start: 5 * time.Second, Dur: 2 * time.Second}},
		Restarts:  []faults.Window{{Start: 12 * time.Second, Dur: 1 * time.Second}},
	}
	return Config{
		Paths: []PathSpec{{
			Name:   "leo",
			Down:   netem.ConstantShape(20, 25*time.Millisecond, 0.001),
			Up:     netem.ConstantShape(5, 25*time.Millisecond, 0.001),
			Faults: sched,
		}},
		Duration: 30 * time.Second,
		Seed:     42,
	}
}

// The tentpole acceptance: a full session with fault windows completes
// in well under a second of wall time, and three runs produce
// byte-identical per-second series (same digest, same CSV).
func TestRunDeterministicAcrossRepeats(t *testing.T) {
	start := time.Now()
	first, err := Run(faultedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > time.Second {
		t.Fatalf("30s virtual session took %v wall, want < 1s", wall)
	}
	for i := 0; i < 2; i++ {
		again, err := Run(faultedConfig())
		if err != nil {
			t.Fatal(err)
		}
		if again.Digest != first.Digest {
			t.Fatalf("run %d digest %s != first %s\nfirst:\n%s\nagain:\n%s",
				i+2, again.Digest, first.Digest, first.CSV(), again.CSV())
		}
		if again.CSV() != first.CSV() {
			t.Fatalf("run %d CSV differs with equal digests (hash collision?)", i+2)
		}
	}
	if len(first.Seconds) != 30 {
		t.Fatalf("got %d rows, want 30", len(first.Seconds))
	}
	if first.Bytes == 0 {
		t.Fatal("session delivered no bytes")
	}
}

// A different seed must replay a different session — the digest is a
// session identity, not a constant.
func TestRunSeedChangesDigest(t *testing.T) {
	a, err := Run(faultedConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultedConfig()
	cfg.Seed = 43
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest == b.Digest {
		t.Fatalf("seeds 42 and 43 produced the same digest %s", a.Digest)
	}
}

// Fault windows must bite: the blackout seconds carry (near) zero
// goodput and a DownFrac of 1, while clear seconds flow.
func TestRunBlackoutStallsGoodput(t *testing.T) {
	res, err := Run(faultedConfig())
	if err != nil {
		t.Fatal(err)
	}
	rows := map[int]Second{}
	for _, s := range res.Seconds {
		rows[s.T] = s
	}
	// Second 7 covers 6s..7s, fully inside the 5s..7s blackout.
	if got := rows[7].DownFrac; got < 0.99 {
		t.Fatalf("second 7 DownFrac = %.3f, want ~1 (blackout 5s..7s)", got)
	}
	if rows[7].Mbps > 1 {
		t.Fatalf("second 7 goodput %.2f Mbps during blackout, want ~0", rows[7].Mbps)
	}
	// Second 13 covers 12s..13s, inside the restart window.
	if got := rows[13].DownFrac; got < 0.99 {
		t.Fatalf("second 13 DownFrac = %.3f, want ~1 (restart 12s..13s)", got)
	}
	// Steady state well clear of both windows must actually flow.
	if rows[25].Mbps < 5 {
		t.Fatalf("second 25 goodput %.2f Mbps in the clear, want > 5", rows[25].Mbps)
	}
	if rows[25].DownFrac != 0 {
		t.Fatalf("second 25 DownFrac = %.3f, want 0", rows[25].DownFrac)
	}
}

// MPTCP replay: two paths with disjoint fault windows run an MPTCP
// session that is deterministic across runs and outperforms the faulty
// single path, because the scheduler shifts load to the surviving
// subflow during each window.
func TestRunMPTCPReplayDeterministic(t *testing.T) {
	two := func() Config {
		return Config{
			Paths: []PathSpec{
				{
					Name:   "leo",
					Down:   netem.ConstantShape(20, 25*time.Millisecond, 0.001),
					Up:     netem.ConstantShape(5, 25*time.Millisecond, 0.001),
					Faults: &faults.Schedule{Blackouts: []faults.Window{{Start: 5 * time.Second, Dur: 3 * time.Second}}},
				},
				{
					Name: "cell",
					Down: netem.ConstantShape(10, 40*time.Millisecond, 0.002),
					Up:   netem.ConstantShape(3, 40*time.Millisecond, 0.002),
				},
			},
			Duration: 20 * time.Second,
			Seed:     7,
		}
	}
	a, err := Run(two())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(two())
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("MPTCP replay diverged:\n%s\nvs\n%s", a.CSV(), b.CSV())
	}
	rows := map[int]Second{}
	for _, s := range a.Seconds {
		rows[s.T] = s
	}
	// During the leo blackout (second 7 covers 6s..7s) the cell subflow
	// keeps the connection moving.
	if rows[7].Mbps < 1 {
		t.Fatalf("second 7 goodput %.2f Mbps; cell subflow should carry through the leo blackout", rows[7].Mbps)
	}
	// DownFrac averages across paths: one of two paths down = 0.5.
	if got := rows[7].DownFrac; got < 0.49 || got > 0.51 {
		t.Fatalf("second 7 DownFrac = %.3f, want 0.5", got)
	}
}

func TestRunRequiresAPath(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("Run with no paths succeeded")
	}
}

func TestCSVShape(t *testing.T) {
	cfg := faultedConfig()
	cfg.Duration = 3 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(res.CSV(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV has %d lines, want header + 3 rows:\n%s", len(lines), res.CSV())
	}
	if lines[0] != "t,mbps,rtt_ms,probes,lost,down_frac" {
		t.Fatalf("unexpected header %q", lines[0])
	}
}

// constTrace is a 1 s-grid channel trace at a fixed rate and RTT.
func constTrace(net channel.NetworkID, down float64, rtt time.Duration, secs int) *channel.Trace {
	tr := &channel.Trace{Network: net}
	for i := 0; i <= secs; i++ {
		tr.Samples = append(tr.Samples, channel.Sample{
			At: time.Duration(i) * time.Second, DownMbps: down, UpMbps: down / 5, RTT: rtt,
		})
	}
	return tr
}

// A trace-backed path replays its samples as given; with the prober
// left out the RTT columns carry no probes.
func TestRunReplaysTraceWithoutProbe(t *testing.T) {
	cfg := Config{
		Paths:    []PathSpec{{Name: "leo", Trace: constTrace(channel.StarlinkMobility, 40, 50*time.Millisecond, 10)}},
		Duration: 10 * time.Second,
		NoProbe:  true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Probes != 0 || res.MeanRTTms != -1 {
		t.Fatalf("NoProbe session sent %d probes, mean RTT %.1f ms", res.Probes, res.MeanRTTms)
	}
	var rows int64
	for _, s := range res.Seconds {
		rows += s.Bytes
		if s.Probes != 0 || s.RTTms != -1 {
			t.Fatalf("second %d: %d probes, rtt %.1f ms with the prober off", s.T, s.Probes, s.RTTms)
		}
	}
	if rows == 0 || rows > res.Bytes {
		t.Fatalf("rows carry %d bytes of the session's %d", rows, res.Bytes)
	}
	// The steady state approaches the trace's 40 Mbps capacity.
	if m := res.Seconds[9].Mbps; m < 30 || m > 40 {
		t.Fatalf("second 10 goodput %.1f Mbps over a 40 Mbps trace", m)
	}
}

// The MPTCP scheduler is a config field: a session that holds the
// satellite subflow at every epoch boundary replays differently from
// the MinRTT default.
func TestRunSchedulerIsHonoured(t *testing.T) {
	cfg := func(s mptcp.Scheduler) Config {
		return Config{
			Paths: []PathSpec{
				{Name: "leo", Trace: constTrace(channel.StarlinkMobility, 100, 60*time.Millisecond, 20)},
				{Name: "cell", Trace: constTrace(channel.ATT, 30, 40*time.Millisecond, 20)},
			},
			Duration:  20 * time.Second,
			RcvBuf:    16 << 20,
			Scheduler: s,
			NoProbe:   true,
		}
	}
	def, err := Run(cfg(nil))
	if err != nil {
		t.Fatal(err)
	}
	minrtt, err := Run(cfg(mptcp.NewMinRTT()))
	if err != nil {
		t.Fatal(err)
	}
	leo, err := Run(cfg(mptcp.NewLEOAware()))
	if err != nil {
		t.Fatal(err)
	}
	if def.Digest != minrtt.Digest {
		t.Fatalf("nil scheduler replayed %s, MinRTT %s", def.Digest, minrtt.Digest)
	}
	if leo.Digest == minrtt.Digest {
		t.Fatal("the LEO-aware scheduler replayed exactly like MinRTT")
	}
}

// A trace-backed path takes no shapes or faults; every offending path
// is named in one error.
func TestRunRejectsTraceWithShapes(t *testing.T) {
	tr := constTrace(channel.ATT, 10, 40*time.Millisecond, 5)
	_, err := Run(Config{Paths: []PathSpec{
		{Name: "ok", Trace: tr},
		{Name: "shaped", Trace: tr, Down: netem.ConstantShape(10, 0, 0)},
		{Name: "faulted", Trace: tr, Up: netem.Shape{Delay: func(time.Duration) time.Duration { return 0 }}, Faults: &faults.Schedule{}},
	}})
	if err == nil {
		t.Fatal("Run accepted a trace-backed path with shapes")
	}
	for _, want := range []string{`path 1 ("shaped"): Trace set together`, `path 2 ("faulted"): Trace set together`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if strings.Contains(err.Error(), `"ok"`) {
		t.Errorf("error %q names the valid path", err)
	}
}

// A session adds a fixed number of events to the kernel's: the
// per-second sampler keeps one row pending at a time and the prober one
// probe, however long the session. Beside them the heap holds at most
// two entries per emulated link and one timer per TCP connection, so a
// faulted two-path session stays within 2·links + connections + 2 at
// every step, and stepping it reproduces Run's digest.
func TestRunPendingBounded(t *testing.T) {
	sched, err := faults.ParseSpec("auto=4/45s", 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Paths: []PathSpec{
			{
				Name:   "leo",
				Down:   netem.ConstantShape(150, 25*time.Millisecond, 0),
				Up:     netem.ConstantShape(15, 25*time.Millisecond, 0),
				Faults: &sched,
			},
			{
				Name: "cell",
				Down: netem.ConstantShape(60, 20*time.Millisecond, 0.001),
				Up:   netem.ConstantShape(10, 20*time.Millisecond, 0),
			},
		},
		Duration: 45 * time.Second,
		Seed:     7,
		RcvBuf:   20 << 20,
	}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	links, conns := 2*len(s.dps), len(s.dps)
	limit := 2*links + conns + 2
	peak := 0
	for at := 10 * time.Millisecond; at <= cfg.Duration; at += 10 * time.Millisecond {
		s.eng.RunUntil(at)
		n := s.eng.Pending()
		peak = max(peak, n)
		if n > limit {
			t.Fatalf("%d pending events at %v, want <= %d (%d links, %d connections)", n, at, limit, links, conns)
		}
	}
	if got := s.finish(); got.Digest != want.Digest {
		t.Fatalf("stepped session digest %s, Run %s", got.Digest, want.Digest)
	}
	t.Logf("peak %d pending events, limit %d", peak, limit)
}
