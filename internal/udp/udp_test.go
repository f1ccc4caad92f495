package udp

import (
	"math"
	"testing"
	"time"

	"satcell/internal/channel"
	"satcell/internal/emu"
)

func flatTrace(down, up float64, rtt time.Duration, lossDown float64, secs int) *channel.Trace {
	tr := &channel.Trace{Network: channel.StarlinkMobility}
	for i := 0; i <= secs; i++ {
		tr.Samples = append(tr.Samples, channel.Sample{
			At:       time.Duration(i) * time.Second,
			DownMbps: down,
			UpMbps:   up,
			RTT:      rtt,
			LossDown: lossDown,
		})
	}
	return tr
}

// cbr is an iPerf-style UDP test flow built on the emulator directly:
// it offers a constant bit rate of 1428-byte datagrams into a link and
// measures what the link's receiving mux delivers. The CBR tests below
// use it to check the emulated path's shaping, loss and queueing.
type cbr struct {
	sent, received, bytes int64
	jitter                float64 // RFC 3550 estimator, seconds
	lastTransit           time.Duration
	perSecond             []float64 // received Mbps in each second
}

const cbrSize = 1428

// startCBR offers rateMbps on link until the engine's clock reaches
// stop, registering the receiver on mux.
func startCBR(eng *emu.Engine, link *emu.Link, mux *emu.FlowMux, rateMbps float64, stop time.Duration) *cbr {
	c := &cbr{}
	mux.Register(1, func(p *emu.Packet) {
		c.received++
		c.bytes += int64(p.Size)
		transit := eng.Now() - p.SentAt
		if c.received > 1 {
			d := transit - c.lastTransit
			if d < 0 {
				d = -d
			}
			c.jitter += (d.Seconds() - c.jitter) / 16
		}
		c.lastTransit = transit
		sec := int(eng.Now() / time.Second)
		for len(c.perSecond) <= sec {
			c.perSecond = append(c.perSecond, 0)
		}
		c.perSecond[sec] += float64(p.Size*8) / 1e6
	})
	interval := time.Duration(float64(cbrSize*8) / (rateMbps * 1e6) * float64(time.Second))
	var send func()
	send = func() {
		if eng.Now() >= stop {
			return
		}
		link.Send(&emu.Packet{Flow: 1, Seq: c.sent, Size: cbrSize})
		c.sent++
		eng.Schedule(interval, send)
	}
	send()
	return c
}

// mbps is the mean received rate over elapsed.
func (c *cbr) mbps(elapsed time.Duration) float64 {
	return float64(c.bytes*8) / elapsed.Seconds() / 1e6
}

func (c *cbr) lossRate() float64 { return 1 - float64(c.received)/float64(c.sent) }

func TestCBRUnderCapacity(t *testing.T) {
	eng := emu.NewEngine()
	dp := emu.NewDuplexPath(eng, flatTrace(100, 10, 40*time.Millisecond, 0, 20), emu.PathConfig{Seed: 1})
	f := startCBR(eng, dp.Down, dp.DownMux, 30, 10*time.Second)
	eng.RunUntil(time.Minute)
	got := f.mbps(10 * time.Second)
	if math.Abs(got-30) > 2 {
		t.Fatalf("goodput = %v, want ~30", got)
	}
	if f.lossRate() > 0.01 {
		t.Fatalf("loss = %v on an under-capacity flow", f.lossRate())
	}
}

func TestCBRProbeMeasuresCapacity(t *testing.T) {
	// Offer 300 Mbps into a 120 Mbps link: received rate == capacity.
	eng := emu.NewEngine()
	dp := emu.NewDuplexPath(eng, flatTrace(120, 12, 40*time.Millisecond, 0, 20), emu.PathConfig{Seed: 2})
	f := startCBR(eng, dp.Down, dp.DownMux, 300, 10*time.Second)
	eng.RunUntil(10 * time.Second)
	got := f.mbps(10 * time.Second)
	if math.Abs(got-120) > 6 {
		t.Fatalf("probe measured %v, want ~120", got)
	}
	// Offered 300, carried 120: loss ~60%.
	if lr := f.lossRate(); lr < 0.5 || lr > 0.7 {
		t.Fatalf("loss rate = %v, want ~0.6", lr)
	}
}

func TestUplinkProbe(t *testing.T) {
	eng := emu.NewEngine()
	dp := emu.NewDuplexPath(eng, flatTrace(120, 15, 40*time.Millisecond, 0, 20), emu.PathConfig{Seed: 3})
	f := startCBR(eng, dp.Up, dp.UpMux, 100, 8*time.Second)
	eng.RunUntil(8 * time.Second)
	got := f.mbps(8 * time.Second)
	if math.Abs(got-15) > 2 {
		t.Fatalf("uplink probe = %v, want ~15", got)
	}
}

func TestRandomLossMeasured(t *testing.T) {
	eng := emu.NewEngine()
	dp := emu.NewDuplexPath(eng, flatTrace(100, 10, 40*time.Millisecond, 0.05, 30), emu.PathConfig{Seed: 4})
	f := startCBR(eng, dp.Down, dp.DownMux, 50, 20*time.Second)
	eng.RunUntil(time.Minute)
	lr := f.lossRate()
	if lr < 0.03 || lr > 0.08 {
		t.Fatalf("measured loss %v, want ~0.05", lr)
	}
}

func TestGoodputSeries(t *testing.T) {
	eng := emu.NewEngine()
	dp := emu.NewDuplexPath(eng, flatTrace(60, 6, 30*time.Millisecond, 0, 20), emu.PathConfig{Seed: 5})
	f := startCBR(eng, dp.Down, dp.DownMux, 40, 10*time.Second)
	eng.RunUntil(10 * time.Second)
	if len(f.perSecond) < 9 {
		t.Fatalf("series too short: %d", len(f.perSecond))
	}
	for sec, v := range f.perSecond[1:9] {
		if math.Abs(v-40) > 4 {
			t.Fatalf("second %d = %v Mbps, want ~40", sec+1, v)
		}
	}
}

func TestJitterReflectsQueueing(t *testing.T) {
	eng := emu.NewEngine()
	// Saturated link: queue builds and drains, transit varies.
	dp := emu.NewDuplexPath(eng, flatTrace(20, 5, 40*time.Millisecond, 0, 20), emu.PathConfig{Seed: 6})
	sat := startCBR(eng, dp.Down, dp.DownMux, 40, 10*time.Second)
	eng.RunUntil(10 * time.Second)
	if sat.jitter <= 0 {
		t.Fatal("saturated flow should show positive jitter")
	}
}

func TestPingerRTTAndLoss(t *testing.T) {
	eng := emu.NewEngine()
	dp := emu.NewDuplexPath(eng, flatTrace(100, 10, 60*time.Millisecond, 0, 30), emu.PathConfig{Seed: 7})
	p := NewPinger(eng, dp, 9, 100*time.Millisecond)
	p.Start()
	eng.RunUntil(20 * time.Second)
	p.Stop()
	eng.RunUntil(time.Minute)
	st := p.Stats()
	if st.Sent < 190 {
		t.Fatalf("sent %d probes", st.Sent)
	}
	if lost := st.Sent - st.Received; float64(lost) > 0.01*float64(st.Sent) {
		t.Fatalf("%d of %d probes lost on a clean path", lost, st.Sent)
	}
	for _, rtt := range st.RTTs {
		if rtt < 59*time.Millisecond || rtt > 75*time.Millisecond {
			t.Fatalf("RTT %v outside expected band", rtt)
		}
	}
	if len(st.RTTs) != int(st.Received) {
		t.Fatal("RTT sample count mismatch")
	}
}

func TestPingerCountsLosses(t *testing.T) {
	eng := emu.NewEngine()
	tr := flatTrace(100, 10, 50*time.Millisecond, 0.2, 30) // 20% downlink loss
	dp := emu.NewDuplexPath(eng, tr, emu.PathConfig{Seed: 8})
	p := NewPinger(eng, dp, 9, 50*time.Millisecond)
	p.Start()
	eng.RunUntil(25 * time.Second)
	p.Stop()
	eng.RunUntil(time.Minute)
	st := p.Stats()
	lr := 1 - float64(st.Received)/float64(st.Sent)
	if lr < 0.12 || lr > 0.3 {
		t.Fatalf("ping loss %v, want ~0.2", lr)
	}
}
