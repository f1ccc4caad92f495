package tcp_test

import (
	"math/rand"
	"testing"
	"time"

	"satcell/internal/channel"
	"satcell/internal/emu"
	"satcell/internal/mptcp"
	"satcell/internal/tcp"
)

// kernelTrace is a fixed replay window in the shape of fig10's inputs:
// one sample per second, capacity re-drawn every 15 s (Starlink's
// reallocation epoch) with per-second jitter, an occasional outage
// second, and no random wire loss. The same seed always yields the same
// window.
func kernelTrace(network channel.NetworkID, seed int64, secs int, meanMbps float64, rtt time.Duration) *channel.Trace {
	r := rand.New(rand.NewSource(seed))
	tr := &channel.Trace{Network: network}
	level := meanMbps
	for i := 0; i <= secs; i++ {
		if i%15 == 0 {
			level = meanMbps * (0.5 + r.Float64())
		}
		s := channel.Sample{
			At:       time.Duration(i) * time.Second,
			DownMbps: level * (0.8 + 0.4*r.Float64()),
			UpMbps:   level / 8,
			RTT:      rtt + time.Duration(r.Intn(20))*time.Millisecond,
		}
		if r.Intn(40) == 0 {
			s.DownMbps, s.UpMbps, s.Outage = 0, 0, true
		}
		tr.Samples = append(tr.Samples, s)
	}
	return tr
}

// kernelQueue is fig10's bottleneck buffer per direction.
const kernelQueue = 3 << 20 / 2

// kernelWindow is the replayed window length.
const kernelWindow = 20 * time.Second

// runKernelDownloads replays the two downloads BenchmarkReplayKernel
// measures — one single-path TCP download over the LEO window, then one
// tuned BLEST MPTCP download over the LEO and cellular windows — and
// returns the packets the emulated links delivered. observe, when set,
// runs after every step of the given length with the engine and the
// number of links and connections it carries.
func runKernelDownloads(step time.Duration, observe func(eng *emu.Engine, links, conns int)) int64 {
	leo := kernelTrace(channel.StarlinkMobility, 1, int(kernelWindow/time.Second), 150, 40*time.Millisecond)
	cell := kernelTrace(channel.ATT, 2, int(kernelWindow/time.Second), 40, 55*time.Millisecond)
	run := func(eng *emu.Engine, links, conns int) {
		for t := step; t <= kernelWindow; t += step {
			eng.RunUntil(t)
			if observe != nil {
				observe(eng, links, conns)
			}
		}
	}
	var pkts int64
	count := func(dps ...*emu.DuplexPath) {
		for _, dp := range dps {
			pkts += dp.Down.Stats().Delivered + dp.Up.Stats().Delivered
		}
	}

	eng := emu.NewEngine()
	dp := emu.NewDuplexPath(eng, leo, emu.PathConfig{Seed: 1, QueueBytes: kernelQueue})
	c := tcp.NewDownload(eng, dp, 1, tcp.Config{})
	c.Start()
	run(eng, 2, 1)
	c.Stop()
	count(dp)

	eng = emu.NewEngine()
	paths := []*emu.DuplexPath{
		emu.NewDuplexPath(eng, leo, emu.PathConfig{Seed: 2, QueueBytes: kernelQueue}),
		emu.NewDuplexPath(eng, cell, emu.PathConfig{Seed: 3, QueueBytes: kernelQueue}),
	}
	mc := mptcp.NewConn(eng, paths, 100, mptcp.Config{RcvBuf: 20 << 20, Scheduler: mptcp.NewBLEST()})
	mc.Start()
	run(eng, 4, 2)
	mc.Stop()
	count(paths...)
	return pkts
}

// BenchmarkReplayKernel measures the packet-level replay kernel fig10,
// fig11 and vsession share: the event heap, the emulated links and the
// simulated TCP and MPTCP endpoints, over a fixed trace window.
func BenchmarkReplayKernel(b *testing.B) {
	b.ReportAllocs()
	var pkts int64
	for i := 0; i < b.N; i++ {
		pkts += runKernelDownloads(kernelWindow, nil)
	}
	b.ReportMetric(float64(pkts)/b.Elapsed().Seconds(), "pkts/s")
}

// The event heap holds at most two entries per emulated link (the
// serializer's next event and the head of the propagation FIFO) and one
// retransmission-timer carrier per connection, however many packets are
// queued or in flight.
func TestReplayKernelPendingBounded(t *testing.T) {
	peak, steps := 0, 0
	pkts := runKernelDownloads(10*time.Millisecond, func(eng *emu.Engine, links, conns int) {
		steps++
		n := eng.Pending()
		peak = max(peak, n)
		if limit := 2*links + conns; n > limit {
			t.Fatalf("%d pending events at %v, want <= %d (%d links, %d connections)",
				n, eng.Now(), limit, links, conns)
		}
	})
	if pkts < 100_000 {
		t.Fatalf("downloads delivered only %d packets; the bound was not exercised", pkts)
	}
	t.Logf("peak %d pending events over %d steps, %d packets", peak, steps, pkts)
}

// The packet path allocates nothing in steady state: each connection
// recycles its data and ACK packets, and an ACK carries its SACK blocks
// inline. What remains is set-up and the amortised growth of buffers,
// maps and series, well under one allocation per hundred packets.
func TestReplayKernelAllocsFlat(t *testing.T) {
	var pkts int64
	allocs := testing.AllocsPerRun(1, func() { pkts = runKernelDownloads(kernelWindow, nil) })
	per := allocs / float64(pkts)
	if per >= 0.01 {
		t.Fatalf("%.0f allocations for %d delivered packets (%.4f per packet), want < 0.01", allocs, pkts, per)
	}
	t.Logf("%.0f allocations for %d delivered packets (%.4f per packet)", allocs, pkts, per)
}
