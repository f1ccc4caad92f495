package tcp

import (
	"testing"
	"time"

	"satcell/internal/channel"
	"satcell/internal/emu"
)

// flatTrace builds a constant-condition trace.
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

// runDownload runs a bulk download for dur and returns the connection.
func runDownload(t *testing.T, tr *channel.Trace, cfg Config, dur time.Duration) *Conn {
	t.Helper()
	eng := emu.NewEngine()
	dp := emu.NewDuplexPath(eng, tr, emu.PathConfig{Seed: 42, QueueBytes: 1 << 20})
	c := NewDownload(eng, dp, 1, cfg)
	c.Start()
	eng.RunUntil(dur)
	c.Stop()
	return c
}

func TestBulkDownloadApproachesCapacity(t *testing.T) {
	tr := flatTrace(channel.Verizon, 50, 10, 40*time.Millisecond, 0, 30)
	c := runDownload(t, tr, Config{}, 20*time.Second)
	got := c.MeanGoodputMbps(20 * time.Second)
	// Lossless 50 Mbps path: TCP should achieve >80% utilization.
	if got < 40 || got > 51 {
		t.Fatalf("goodput = %v Mbps on a 50 Mbps path", got)
	}
	if c.Stats().Retransmits > c.Stats().SegmentsSent/50 {
		t.Fatalf("unexpected retransmissions on clean path: %+v", c.Stats())
	}
}

func TestLossCrushesThroughput(t *testing.T) {
	clean := flatTrace(channel.StarlinkMobility, 200, 20, 60*time.Millisecond, 0, 40)
	lossy := flatTrace(channel.StarlinkMobility, 200, 20, 60*time.Millisecond, 0.01, 40)
	gClean := runDownload(t, clean, Config{}, 30*time.Second).MeanGoodputMbps(30 * time.Second)
	gLossy := runDownload(t, lossy, Config{}, 30*time.Second).MeanGoodputMbps(30 * time.Second)
	if gLossy > gClean/2 {
		t.Fatalf("1%% loss should crush TCP: clean %v vs lossy %v", gClean, gLossy)
	}
	if gLossy < 1 {
		t.Fatalf("TCP collapsed entirely: %v", gLossy)
	}
}

func TestRetransmissionRateTracksPathLoss(t *testing.T) {
	tr := flatTrace(channel.StarlinkMobility, 150, 15, 60*time.Millisecond, 0.006, 60)
	c := runDownload(t, tr, Config{}, 45*time.Second)
	st := c.Stats()
	rr := float64(st.Retransmits) / float64(st.SegmentsSent)
	// Retransmission rate should be in the neighbourhood of the wire
	// loss (0.6%), certainly within the paper's 0.3-1.3% Starlink band.
	if rr < 0.002 || rr > 0.025 {
		t.Fatalf("retrans rate = %v for 0.6%% loss", rr)
	}
}

func TestGoodputNeverExceedsLinkRate(t *testing.T) {
	tr := flatTrace(channel.TMobile, 30, 8, 50*time.Millisecond, 0, 30)
	c := runDownload(t, tr, Config{}, 20*time.Second)
	for _, p := range c.Goodput().Points {
		if p.V > 33 { // 10% margin over 30 Mbps
			t.Fatalf("goodput %v Mbps exceeds link rate at %v", p.V, p.At)
		}
	}
}

func TestSlowStartRampsQuickly(t *testing.T) {
	tr := flatTrace(channel.Verizon, 100, 20, 40*time.Millisecond, 0, 10)
	c := runDownload(t, tr, Config{}, 5*time.Second)
	pts := c.Goodput().Points
	if len(pts) < 3 {
		t.Fatalf("too few goodput points: %d", len(pts))
	}
	// By the 3rd second TCP should be near link capacity.
	if pts[2].V < 70 {
		t.Fatalf("slow start too slow: %v Mbps at t=2s", pts[2].V)
	}
}

func TestRTOAfterOutage(t *testing.T) {
	// Path dies completely between 5s and 8s.
	tr := &channel.Trace{Network: channel.ATT}
	for i := 0; i <= 30; i++ {
		s := channel.Sample{
			At: time.Duration(i) * time.Second, DownMbps: 50, UpMbps: 10,
			RTT: 40 * time.Millisecond,
		}
		if i >= 5 && i < 8 {
			s.DownMbps, s.UpMbps, s.LossDown, s.LossUp = 0, 0, 1, 1
		}
		tr.Samples = append(tr.Samples, s)
	}
	c := runDownload(t, tr, Config{}, 25*time.Second)
	if c.Stats().RTOs == 0 {
		t.Fatal("outage should trigger RTOs")
	}
	// The transfer must recover after the outage.
	var after float64
	for _, p := range c.Goodput().Points {
		if p.At >= 12*time.Second && p.At < 20*time.Second {
			after += p.V
		}
	}
	if after/8 < 25 {
		t.Fatalf("no recovery after outage: %v Mbps mean", after/8)
	}
}

func TestCubicOutperformsRenoOnCleanLFN(t *testing.T) {
	// Long fat network: 300 Mbps, 80ms. CUBIC should fill it faster
	// after a loss episode than NewReno.
	mk := func(cc func() CongestionControl) float64 {
		tr := flatTrace(channel.StarlinkMobility, 300, 30, 80*time.Millisecond, 0.0005, 60)
		c := runDownload(t, tr, Config{CC: cc}, 45*time.Second)
		return c.MeanGoodputMbps(45 * time.Second)
	}
	eng := emu.NewEngine() // clock source for cubic outside runDownload
	_ = eng
	reno := mk(func() CongestionControl { return NewNewReno() })
	// CUBIC needs the engine clock; construct per connection below.
	// runDownload builds its own engine, so use a clock captured at
	// construction time via closure over the connection's engine.
	cubic := func() float64 {
		tr := flatTrace(channel.StarlinkMobility, 300, 30, 80*time.Millisecond, 0.0005, 60)
		eng := emu.NewEngine()
		dp := emu.NewDuplexPath(eng, tr, emu.PathConfig{Seed: 42, QueueBytes: 1 << 20})
		var c *Conn
		c = NewDownload(eng, dp, 1, Config{CC: func() CongestionControl {
			return NewCubic(eng.Now)
		}})
		c.Start()
		eng.RunUntil(45 * time.Second)
		c.Stop()
		return c.MeanGoodputMbps(45 * time.Second)
	}()
	if cubic < reno*0.95 {
		t.Fatalf("CUBIC (%v) should not trail NewReno (%v) on an LFN", cubic, reno)
	}
}

func TestParallelStreamsImproveLossyThroughput(t *testing.T) {
	// The Fig. 7 mechanism: on a lossy Starlink-like path, 8 parallel
	// connections should substantially out-throughput a single one.
	run := func(streams int) float64 {
		tr := flatTrace(channel.StarlinkRoam, 150, 15, 60*time.Millisecond, 0.008, 60)
		eng := emu.NewEngine()
		dp := emu.NewDuplexPath(eng, tr, emu.PathConfig{Seed: 7, QueueBytes: 1 << 20})
		conns := make([]*Conn, streams)
		for i := range conns {
			conns[i] = NewDownload(eng, dp, i+1, Config{})
			conns[i].Start()
		}
		eng.RunUntil(40 * time.Second)
		total := 0.0
		for _, c := range conns {
			c.Stop()
			total += c.MeanGoodputMbps(40 * time.Second)
		}
		return total
	}
	one := run(1)
	eight := run(8)
	if eight < 1.5*one {
		t.Fatalf("8P (%v) should be >1.5x 1P (%v) under loss", eight, one)
	}
}

func TestReceiveWindowLimitsThroughput(t *testing.T) {
	// 100 Mbps x 100ms = 1.25 MB BDP; a 128 kB receive buffer caps
	// throughput near rwnd/RTT = ~10 Mbps.
	tr := flatTrace(channel.Verizon, 100, 20, 100*time.Millisecond, 0, 30)
	c := runDownload(t, tr, Config{RcvBuf: 128 << 10}, 20*time.Second)
	got := c.MeanGoodputMbps(20 * time.Second)
	if got > 16 {
		t.Fatalf("rwnd-limited goodput = %v Mbps, expected ~10", got)
	}
	if got < 5 {
		t.Fatalf("rwnd-limited goodput = %v Mbps, too low", got)
	}
}

func TestRcvBufCapsWindow(t *testing.T) {
	tr := flatTrace(channel.Verizon, 100, 20, 100*time.Millisecond, 0, 30)
	eng := emu.NewEngine()
	dp := emu.NewDuplexPath(eng, tr, emu.PathConfig{Seed: 1, QueueBytes: 1 << 20})
	c := NewDownload(eng, dp, 1, Config{RcvBuf: 64 << 10})
	c.Start()
	eng.RunUntil(10 * time.Second)
	c.Stop()
	got := c.MeanGoodputMbps(10 * time.Second)
	if got > 8 {
		t.Fatalf("64kB rwnd should cap at ~5 Mbps, got %v", got)
	}
}

func TestOnDeliverSeesContiguousDSNs(t *testing.T) {
	tr := flatTrace(channel.StarlinkMobility, 80, 10, 50*time.Millisecond, 0.005, 30)
	eng := emu.NewEngine()
	dp := emu.NewDuplexPath(eng, tr, emu.PathConfig{Seed: 3, QueueBytes: 1 << 20})
	var next int64
	gap := false
	c := NewDownload(eng, dp, 1, Config{OnDeliver: func(ch Chunk) {
		if ch.DSN != next {
			gap = true
		}
		next = ch.DSN + int64(ch.Len)
	}})
	c.Start()
	eng.RunUntil(15 * time.Second)
	c.Stop()
	if gap {
		t.Fatal("receiver delivered non-contiguous DSNs on a single flow")
	}
	if next == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestStatsConsistency(t *testing.T) {
	tr := flatTrace(channel.TMobile, 60, 12, 40*time.Millisecond, 0.004, 40)
	c := runDownload(t, tr, Config{}, 30*time.Second)
	s := c.Stats()
	if s.SegmentsSent <= 0 || s.BytesAcked <= 0 || s.BytesDelivered <= 0 {
		t.Fatalf("empty stats: %+v", s)
	}
	if s.BytesDelivered < s.BytesAcked-int64(6<<20) {
		t.Fatalf("delivered (%d) far below acked (%d)", s.BytesDelivered, s.BytesAcked)
	}
	if s.Retransmits < 0 || s.Retransmits > s.SegmentsSent {
		t.Fatalf("retransmits %d out of range for %d segments", s.Retransmits, s.SegmentsSent)
	}
}

func TestNewRenoUnit(t *testing.T) {
	r := NewNewReno()
	if r.Name() != "newreno" {
		t.Fatal("name")
	}
	w0 := r.Window()
	if w0 != initialWindow {
		t.Fatalf("initial window %d", w0)
	}
	r.OnAck(MSS, 50*time.Millisecond) // slow start
	if r.Window() != w0+MSS {
		t.Fatalf("slow start growth broken: %d", r.Window())
	}
	ss := r.OnLoss(r.Window())
	if ss != (w0+MSS)/2 {
		t.Fatalf("ssthresh = %d", ss)
	}
	r.ExitRecovery()
	if r.Window() != ss {
		t.Fatalf("window after recovery = %d", r.Window())
	}
	// Congestion avoidance: growth ~ MSS per window.
	r.SetWindow(100 * MSS)
	// force ca by keeping ssthresh below
	prev := r.Window()
	r.OnAck(MSS, 50*time.Millisecond)
	if r.Window() <= prev || r.Window() > prev+MSS {
		t.Fatalf("CA growth out of range: %d -> %d", prev, r.Window())
	}
	r.OnRTO(r.Window())
	if r.Window() != MSS {
		t.Fatalf("window after RTO = %d", r.Window())
	}
	r.Reset()
	if r.Window() != initialWindow {
		t.Fatal("reset broken")
	}
}

func TestCubicUnit(t *testing.T) {
	now := time.Duration(0)
	c := NewCubic(func() time.Duration { return now })
	if c.Name() != "cubic" {
		t.Fatal("name")
	}
	if c.Window() != initialWindow {
		t.Fatal("initial window")
	}
	// Slow start.
	c.OnAck(MSS, 50*time.Millisecond)
	if c.Window() != initialWindow+MSS {
		t.Fatalf("slow start: %d", c.Window())
	}
	ss := c.OnLoss(c.Window())
	if ss >= c.Window() || ss < minWindow {
		t.Fatalf("ssthresh %d vs cwnd %d", ss, c.Window())
	}
	c.ExitRecovery()
	w1 := c.Window()
	// After recovery, window growth resumes and accelerates with time:
	// concave up to wMax (K = cbrt((wMax-w1)/C) ~ 2 s here), then convex.
	var grew bool
	for i := 0; i < 500; i++ {
		now += 20 * time.Millisecond
		c.OnAck(MSS, 50*time.Millisecond)
		if c.Window() > w1+10*MSS {
			grew = true
			break
		}
	}
	if !grew {
		t.Fatalf("CUBIC failed to grow after recovery: %d (from %d)", c.Window(), w1)
	}
	c.OnRTO(c.Window())
	if c.Window() != MSS {
		t.Fatalf("after RTO: %d", c.Window())
	}
}

func TestBulkSource(t *testing.T) {
	var b BulkSource
	c1, ok := b.Next(MSS)
	if !ok || c1.DSN != 0 || c1.Len != MSS {
		t.Fatalf("first chunk %+v", c1)
	}
	c2, _ := b.Next(100)
	if c2.DSN != int64(MSS) || c2.Len != 100 {
		t.Fatalf("second chunk %+v", c2)
	}
	if _, ok := b.Next(0); ok {
		t.Fatal("zero-byte chunk should not be available")
	}
}

func TestZeroWindowStallsAndUpdateReopens(t *testing.T) {
	// The receiver advertises a zero window; the sender must stall.
	// After the window reopens and the receiver sends a pure window
	// update, transfer resumes.
	tr := flatTrace(channel.Verizon, 100, 20, 40*time.Millisecond, 0, 60)
	eng := emu.NewEngine()
	dp := emu.NewDuplexPath(eng, tr, emu.PathConfig{Seed: 4, QueueBytes: 1 << 20})
	c := NewDownload(eng, dp, 1, Config{})
	c.cfg.RcvBuf = 0 // closed after the first burst
	c.Start()
	eng.RunUntil(3 * time.Second)
	stalled := c.Stats().BytesDelivered
	// Only the initial (pre-first-ACK) flight can have arrived.
	if stalled > 20*MSS {
		t.Fatalf("sender ignored the zero window: %d bytes", stalled)
	}
	// Reopen and notify.
	c.cfg.RcvBuf = 1 << 20
	eng.Schedule(0, func() { c.sendAck(0) })
	eng.RunUntil(8 * time.Second)
	c.Stop()
	if c.Stats().BytesDelivered < stalled+int64(1<<20) {
		t.Fatalf("transfer did not resume after window update: %d", c.Stats().BytesDelivered)
	}
}

func TestUploadDirection(t *testing.T) {
	// Data on the (10x slower) uplink, ACKs on the downlink.
	tr := flatTrace(channel.StarlinkMobility, 150, 15, 60*time.Millisecond, 0, 30)
	eng := emu.NewEngine()
	dp := emu.NewDuplexPath(eng, tr, emu.PathConfig{Seed: 5, QueueBytes: 1 << 20})
	c := NewConn(eng, 1, dp.Up, dp.Down, Config{})
	dp.UpMux.Register(1, c.DeliverData)
	dp.DownMux.Register(1, c.DeliverAck)
	c.Start()
	eng.RunUntil(20 * time.Second)
	c.Stop()
	got := c.MeanGoodputMbps(20 * time.Second)
	if got < 10 || got > 16 {
		t.Fatalf("upload goodput %v, want ~15 (the uplink capacity)", got)
	}
}
