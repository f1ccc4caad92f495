package mptcp

import (
	"testing"
	"time"

	"satcell/internal/channel"
	"satcell/internal/emu"
	"satcell/internal/stats"
	"satcell/internal/tcp"
	"satcell/internal/testutil"
)

func flatTrace(n channel.NetworkID, down, up float64, rtt time.Duration, loss float64, secs int) *channel.Trace {
	tr := &channel.Trace{Network: n}
	for i := 0; i <= secs; i++ {
		tr.Samples = append(tr.Samples, channel.Sample{
			At:       time.Duration(i) * time.Second,
			DownMbps: down,
			UpMbps:   up,
			RTT:      rtt,
			LossDown: loss,
			LossUp:   loss / 2,
		})
	}
	return tr
}

// runMPTCP runs a multipath download over the given traces for secs
// seconds and returns its mean goodput and per-second goodput series.
func runMPTCP(traces []*channel.Trace, cfg Config, secs int) (float64, []float64) {
	eng := emu.NewEngine()
	paths := make([]*emu.DuplexPath, len(traces))
	for i, tr := range traces {
		paths[i] = emu.NewDuplexPath(eng, tr, emu.PathConfig{Seed: int64(100 + i), QueueBytes: 1 << 20})
	}
	c := NewConn(eng, paths, 1000, cfg)
	c.Start()
	series := testutil.GoodputSeries(eng, secs, c.BytesDelivered)
	c.Stop()
	return testutil.MeanMbps(c.BytesDelivered(), time.Duration(secs)*time.Second), series
}

func runSingle(tr *channel.Trace, dur time.Duration) float64 {
	eng := emu.NewEngine()
	dp := emu.NewDuplexPath(eng, tr, emu.PathConfig{Seed: 100, QueueBytes: 1 << 20})
	c := tcp.NewDownload(eng, dp, 1, tcp.Config{})
	c.Start()
	eng.RunUntil(dur)
	c.Stop()
	return testutil.MeanMbps(c.BytesDelivered(), dur)
}

func TestAggregatesTwoCleanPaths(t *testing.T) {
	traces := []*channel.Trace{
		flatTrace(channel.StarlinkMobility, 100, 20, 60*time.Millisecond, 0, 40),
		flatTrace(channel.Verizon, 60, 15, 40*time.Millisecond, 0, 40),
	}
	got, _ := runMPTCP(traces, Config{RcvBuf: 16 << 20}, 30)
	// Two clean paths of 100+60: expect > 80% of the sum.
	if got < 128 {
		t.Fatalf("aggregate goodput = %v, want > 128 (of 160)", got)
	}
	if got > 165 {
		t.Fatalf("aggregate goodput = %v exceeds capacity", got)
	}
}

func TestBeatsBestSinglePath(t *testing.T) {
	a := flatTrace(channel.StarlinkMobility, 120, 20, 70*time.Millisecond, 0.003, 40)
	b := flatTrace(channel.ATT, 70, 15, 50*time.Millisecond, 0.0005, 40)
	got, _ := runMPTCP([]*channel.Trace{a, b}, Config{RcvBuf: 16 << 20}, 30)
	gA := runSingle(a, 30*time.Second)
	gB := runSingle(b, 30*time.Second)
	best := gA
	if gB > best {
		best = gB
	}
	if got < best*1.15 {
		t.Fatalf("MPTCP %v should beat best single path %v by >15%%", got, best)
	}
}

func TestSmallBufferCausesHoLBlocking(t *testing.T) {
	// Heterogeneous paths: fast cellular + slow, lossy satellite.
	// With a tiny connection buffer the slow subflow's in-flight data
	// blocks the fast one (the paper's untuned-buffer effect).
	a := flatTrace(channel.StarlinkMobility, 150, 20, 200*time.Millisecond, 0.01, 40)
	b := flatTrace(channel.Verizon, 80, 15, 35*time.Millisecond, 0, 40)
	gs, _ := runMPTCP([]*channel.Trace{a, b}, Config{RcvBuf: 128 << 10}, 30)
	gl, _ := runMPTCP([]*channel.Trace{a, b}, Config{RcvBuf: 16 << 20}, 30)
	if gl < 1.5*gs {
		t.Fatalf("buffer tuning should matter: small %v vs large %v", gs, gl)
	}
}

func TestReassemblyDeliversInOrder(t *testing.T) {
	a := flatTrace(channel.StarlinkMobility, 100, 20, 90*time.Millisecond, 0.005, 20)
	b := flatTrace(channel.Verizon, 50, 15, 40*time.Millisecond, 0.001, 20)
	eng := emu.NewEngine()
	paths := []*emu.DuplexPath{
		emu.NewDuplexPath(eng, a, emu.PathConfig{Seed: 1, QueueBytes: 1 << 20}),
		emu.NewDuplexPath(eng, b, emu.PathConfig{Seed: 2, QueueBytes: 1 << 20}),
	}
	c := NewConn(eng, paths, 10, Config{RcvBuf: 8 << 20})
	c.Start()
	eng.RunUntil(15 * time.Second)
	c.Stop()
	if c.BytesDelivered() == 0 {
		t.Fatal("nothing delivered")
	}
	// In-order delivery invariant: rcvNxtDSN equals delivered bytes.
	if c.rcvNxtDSN != c.delivered {
		t.Fatalf("rcvNxt %d != delivered %d", c.rcvNxtDSN, c.delivered)
	}
	// Everything handed out must be bounded by the send counter.
	if c.delivered > c.sndNxtDSN {
		t.Fatal("delivered more than sent")
	}
}

func TestSchedulersAllFunction(t *testing.T) {
	a := flatTrace(channel.StarlinkMobility, 100, 20, 80*time.Millisecond, 0.004, 30)
	b := flatTrace(channel.Verizon, 60, 15, 40*time.Millisecond, 0.001, 30)
	for _, sched := range []Scheduler{NewRoundRobin(), NewMinRTT(), NewBLEST()} {
		got, _ := runMPTCP([]*channel.Trace{a, b}, Config{RcvBuf: 16 << 20, Scheduler: sched}, 20)
		// Round-robin couples both paths to the slower one's chunk
		// rate (its well-known weakness on heterogeneous paths), so it
		// gets a lower bar than the RTT-aware schedulers.
		// Absolute numbers are Mathis-bound by the per-packet loss of
		// these synthetic traces; the point is that every scheduler
		// aggregates sensibly (and RR gets a lower bar because it
		// couples both paths to the slower chunk rate).
		minWant := 15.0
		if sched.Name() == "roundrobin" {
			minWant = 8
		}
		if got < minWant {
			t.Fatalf("%s: aggregate %v too low", sched.Name(), got)
		}
	}
}

func TestBLESTBeatsMinRTTWithTightBuffer(t *testing.T) {
	// BLEST's reason to exist: heterogeneous RTTs + limited buffer.
	a := flatTrace(channel.StarlinkMobility, 120, 20, 150*time.Millisecond, 0.008, 40)
	b := flatTrace(channel.Verizon, 90, 15, 30*time.Millisecond, 0, 40)
	traces := []*channel.Trace{a, b}
	buf := 768 << 10
	gm, _ := runMPTCP(traces, Config{RcvBuf: buf, Scheduler: NewMinRTT()}, 30)
	gb, _ := runMPTCP(traces, Config{RcvBuf: buf, Scheduler: NewBLEST()}, 30)
	// BLEST should not do worse; typically it does clearly better.
	if gb < gm*0.95 {
		t.Fatalf("BLEST %v worse than MinRTT %v under tight buffer", gb, gm)
	}
}

func TestCoupledCCStaysBelowUncoupled(t *testing.T) {
	// On two independent paths, LIA is less aggressive than two
	// uncoupled NewReno flows but must still aggregate well.
	a := flatTrace(channel.StarlinkMobility, 80, 20, 60*time.Millisecond, 0.002, 40)
	b := flatTrace(channel.Verizon, 80, 15, 60*time.Millisecond, 0.002, 40)
	traces := []*channel.Trace{a, b}
	gc, _ := runMPTCP(traces, Config{RcvBuf: 16 << 20, Coupled: true}, 30)
	gu, _ := runMPTCP(traces, Config{RcvBuf: 16 << 20}, 30)
	if gc > gu*1.1 {
		t.Fatalf("coupled (%v) should not beat uncoupled (%v)", gc, gu)
	}
	if gc < gu*0.4 {
		t.Fatalf("coupled (%v) collapsed vs uncoupled (%v)", gc, gu)
	}
}

func TestRidesTheBetterPathThroughOutage(t *testing.T) {
	// Path A dies from 10-20s; MPTCP should keep most of path B's rate.
	a := &channel.Trace{Network: channel.StarlinkMobility}
	for i := 0; i <= 40; i++ {
		s := channel.Sample{At: time.Duration(i) * time.Second, DownMbps: 100, UpMbps: 20, RTT: 60 * time.Millisecond}
		if i >= 10 && i < 20 {
			s.DownMbps, s.UpMbps, s.LossDown, s.LossUp = 0, 0, 1, 1
		}
		a.Samples = append(a.Samples, s)
	}
	b := flatTrace(channel.Verizon, 60, 15, 40*time.Millisecond, 0, 40)
	_, series := runMPTCP([]*channel.Trace{a, b}, Config{RcvBuf: 16 << 20}, 35)
	// During the outage window, goodput should stay near path B's rate.
	var during []float64
	for sec, v := range series {
		if sec >= 12 && sec < 19 {
			during = append(during, v)
		}
	}
	if len(during) == 0 {
		t.Fatal("no goodput samples during outage")
	}
	sum := 0.0
	for _, v := range during {
		sum += v
	}
	mean := sum / float64(len(during))
	if mean < 30 {
		t.Fatalf("goodput during path-A outage = %v, want near path B's 60", mean)
	}
}

func TestLIAAlphaProperties(t *testing.T) {
	g := &liaGroup{}
	if a := g.alpha(); a != 1 {
		t.Fatalf("empty group alpha = %v", a)
	}
	l := newLIA(g)
	if l.Name() != "lia" {
		t.Fatal("name")
	}
	if l.Window() <= 0 {
		t.Fatal("window")
	}
	l.OnAck(tcp.MSS, 50*time.Millisecond) // slow start passthrough
	w := l.Window()
	ss := l.OnLoss(w)
	if ss != max(w/2, 2*tcp.MSS) {
		t.Fatalf("ssthresh %d", ss)
	}
	l.ExitRecovery()
	l.OnRTO(l.Window())
	if l.Window() != tcp.MSS {
		t.Fatalf("after RTO: %d", l.Window())
	}
	l.Reset()
	if l.InSlowStart() != true {
		t.Fatal("reset should restore slow start")
	}
}

func TestConnString(t *testing.T) {
	a := flatTrace(channel.StarlinkMobility, 50, 10, 50*time.Millisecond, 0, 5)
	eng := emu.NewEngine()
	paths := []*emu.DuplexPath{emu.NewDuplexPath(eng, a, emu.PathConfig{Seed: 1})}
	c := NewConn(eng, paths, 1, Config{})
	s := c.String()
	if s == "" || c.Subflows()[0] == nil {
		t.Fatal("String/Subflows broken")
	}
}

func TestRedundantSchedulerDuplicatesEverything(t *testing.T) {
	a := flatTrace(channel.StarlinkMobility, 60, 15, 60*time.Millisecond, 0, 30)
	b := flatTrace(channel.Verizon, 60, 15, 40*time.Millisecond, 0, 30)
	got, _ := runMPTCP([]*channel.Trace{a, b}, Config{RcvBuf: 16 << 20, Scheduler: NewRedundant()}, 20)
	// Redundant goodput is bounded by a single path's capacity (every
	// byte crosses both paths) but must still deliver a healthy stream.
	if got > 66 {
		t.Fatalf("redundant goodput %v exceeds single-path capacity", got)
	}
	if got < 25 {
		t.Fatalf("redundant goodput %v too low", got)
	}
}

func TestRedundantSurvivesPathLoss(t *testing.T) {
	// One path drops 30% of packets; redundancy should keep goodput
	// near the clean path's rate without waiting for retransmissions.
	a := flatTrace(channel.StarlinkMobility, 50, 10, 60*time.Millisecond, 0.3, 30)
	b := flatTrace(channel.Verizon, 50, 12, 40*time.Millisecond, 0, 30)
	got, _ := runMPTCP([]*channel.Trace{a, b}, Config{RcvBuf: 16 << 20, Scheduler: NewRedundant()}, 20)
	if got < 20 {
		t.Fatalf("redundant goodput %v under asymmetric loss", got)
	}
}

func TestRedundantName(t *testing.T) {
	if NewRedundant().Name() != "redundant" {
		t.Fatal("name")
	}
}

// epochDipTrace models a Starlink path whose capacity collapses briefly
// after every 15 s reallocation boundary.
func epochDipTrace(secs int) *channel.Trace {
	tr := &channel.Trace{Network: channel.StarlinkMobility}
	for i := 0; i <= secs; i++ {
		s := channel.Sample{
			At:       time.Duration(i) * time.Second,
			DownMbps: 150, UpMbps: 20, RTT: 60 * time.Millisecond,
		}
		if i%15 == 0 && i > 0 {
			s.DownMbps, s.UpMbps = 0, 0
			s.Outage = true
		}
		tr.Samples = append(tr.Samples, s)
	}
	return tr
}

func TestLEOAwareReducesFluctuation(t *testing.T) {
	sat := epochDipTrace(60)
	cellTr := flatTrace(channel.Verizon, 70, 15, 40*time.Millisecond, 0, 60)
	run := func(sched Scheduler) (mean, std float64) {
		eng := emu.NewEngine()
		paths := []*emu.DuplexPath{
			emu.NewDuplexPath(eng, sat, emu.PathConfig{Seed: 1, QueueBytes: 1 << 20}),
			emu.NewDuplexPath(eng, cellTr, emu.PathConfig{Seed: 2, QueueBytes: 1 << 20}),
		}
		c := NewConn(eng, paths, 50, Config{RcvBuf: 16 << 20, Scheduler: sched})
		c.Start()
		vals := testutil.GoodputSeries(eng, 50, c.BytesDelivered)
		c.Stop()
		if len(vals) > 5 {
			vals = vals[5:] // skip slow start
		}
		return stats.Mean(vals), stats.StdDev(vals)
	}
	minMean, minStd := run(NewMinRTT())
	leoMean, leoStd := run(NewLEOAware(0))
	// The LEO-aware scheduler's goal is smoother goodput at comparable
	// mean: relative fluctuation must not get worse, mean must hold.
	if leoStd/leoMean > minStd/minMean*1.05 {
		t.Fatalf("leo-aware CoV %.3f worse than minrtt %.3f", leoStd/leoMean, minStd/minMean)
	}
	if leoMean < minMean*0.85 {
		t.Fatalf("leo-aware mean %v sacrificed too much vs %v", leoMean, minMean)
	}
}

func TestLEOAwareBoundaryWindow(t *testing.T) {
	l := NewLEOAware(0)
	cases := []struct {
		at   time.Duration
		near bool
	}{
		{0, true}, {500 * time.Millisecond, true}, {time.Second + time.Millisecond, false},
		{7 * time.Second, false}, {14*time.Second + 100*time.Millisecond, true},
		{15 * time.Second, true}, {16 * time.Second, false},
	}
	for _, c := range cases {
		if got := l.nearBoundary(c.at); got != c.near {
			t.Fatalf("nearBoundary(%v) = %v, want %v", c.at, got, c.near)
		}
	}
	if l.Name() != "leo-aware" {
		t.Fatal("name")
	}
}

// LEOAware reads virtual time from the connection it schedules: inside
// an epoch's guard window the satellite subflow is held and the
// cellular one takes the data; clear of it, plain MinRTT order returns.
func TestLEOAwareHoldsSatelliteAtBoundary(t *testing.T) {
	eng := emu.NewEngine()
	paths := []*emu.DuplexPath{
		emu.NewDuplexPath(eng, flatTrace(channel.StarlinkMobility, 150, 20, 60*time.Millisecond, 0, 20), emu.PathConfig{}),
		emu.NewDuplexPath(eng, flatTrace(channel.Verizon, 70, 15, 40*time.Millisecond, 0, 20), emu.PathConfig{}),
	}
	l := NewLEOAware(0)
	c := NewConn(eng, paths, 1, Config{Scheduler: l})
	if l.Allow(c, 0) || !l.Allow(c, 1) {
		t.Fatalf("t=0 (epoch boundary): Allow = %v, %v; want the satellite held", l.Allow(c, 0), l.Allow(c, 1))
	}
	eng.RunUntil(7 * time.Second)
	if !l.Allow(c, 0) || l.Allow(c, 1) {
		t.Fatalf("t=7s (mid-epoch): Allow = %v, %v; want MinRTT order", l.Allow(c, 0), l.Allow(c, 1))
	}
}
