package dataset

import (
	"math/rand"
	"testing"
	"time"

	"satcell/internal/channel"
	"satcell/internal/emu"
	"satcell/internal/geo"
	"satcell/internal/tcp"
)

// The paper's §3.3 test count and trace minutes, which a generated
// campaign must track at every scale.
const (
	paperTests    = 1239
	paperTraceMin = 9083
)

func smallDataset(t *testing.T) *Dataset {
	t.Helper()
	return Generate(Config{Seed: 7, Scale: 0.02})
}

func TestGenerateBasicShape(t *testing.T) {
	ds := smallDataset(t)
	if len(ds.Drives) == 0 || len(ds.Tests) == 0 {
		t.Fatal("empty dataset")
	}
	if ds.TotalKm < PaperTotalKm*0.02 {
		t.Fatalf("distance %v below target", ds.TotalKm)
	}
	// All five networks must be measured.
	seen := map[channel.NetworkID]int{}
	for i := range ds.Tests {
		seen[ds.Tests[i].Network]++
	}
	for _, n := range channel.Networks {
		if seen[n] == 0 {
			t.Fatalf("network %v has no tests", n)
		}
	}
	// Every test must carry per-second records and a result.
	for i := range ds.Tests {
		ts := &ds.Tests[i]
		if len(ts.Records) == 0 {
			t.Fatalf("test %d has no records", ts.ID)
		}
		if ts.Kind != Ping && ts.ThroughputMbps < 0 {
			t.Fatalf("test %d negative throughput", ts.ID)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Seed: 3, Scale: 0.01})
	b := Generate(Config{Seed: 3, Scale: 0.01})
	if len(a.Tests) != len(b.Tests) {
		t.Fatalf("test counts differ: %d vs %d", len(a.Tests), len(b.Tests))
	}
	for i := range a.Tests {
		if a.Tests[i].ThroughputMbps != b.Tests[i].ThroughputMbps {
			t.Fatalf("test %d differs between runs", i)
		}
	}
}

func TestScaleTracksPaperNumbers(t *testing.T) {
	scale := 0.05
	ds := Generate(Config{Seed: 11, Scale: scale})
	// Within a factor-two band of proportional paper numbers (route
	// granularity makes exact matching impossible at tiny scales).
	wantTests := float64(paperTests) * scale
	if got := float64(len(ds.Tests)); got < wantTests*0.5 || got > wantTests*2.5 {
		t.Fatalf("tests = %v, want ~%v", got, wantTests)
	}
	wantMin := float64(paperTraceMin) * scale
	if ds.TotalTestMin < wantMin*0.5 || ds.TotalTestMin > wantMin*2.5 {
		t.Fatalf("trace minutes = %v, want ~%v", ds.TotalTestMin, wantMin)
	}
}

func TestAreaMixHasAllThree(t *testing.T) {
	ds := Generate(Config{Seed: 5, Scale: 0.12})
	counts := map[geo.AreaType]int{}
	for _, d := range ds.Drives {
		for _, f := range d.Fixes {
			counts[f.Area]++
		}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		t.Fatal("no samples")
	}
	for _, a := range geo.AreaTypes {
		frac := float64(counts[a]) / float64(total)
		if frac < 0.08 {
			t.Fatalf("area %v only %.1f%% of samples", a, frac*100)
		}
	}
}

func TestFilterHelpers(t *testing.T) {
	ds := smallDataset(t)
	mob := ds.Filter(ByNetwork(channel.StarlinkMobility), ByKind(UDPDown))
	if len(mob) == 0 {
		t.Fatal("no MOB UDP down tests")
	}
	for _, ts := range mob {
		if ts.Network != channel.StarlinkMobility || ts.Kind != UDPDown {
			t.Fatal("filter returned wrong tests")
		}
	}
}

func TestKindStringsAndParallel(t *testing.T) {
	if TCPDown4P.Parallel() != 4 || TCPDown8P.Parallel() != 8 || TCPDown.Parallel() != 1 {
		t.Fatal("Parallel() wrong")
	}
	names := map[Kind]string{
		UDPDown: "udp-down", UDPUp: "udp-up", TCPDown: "tcp-down",
		TCPDown4P: "tcp-down-4p", TCPDown8P: "tcp-down-8p",
		TCPUp: "tcp-up", Ping: "udp-ping",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%d: %q != %q", k, k.String(), want)
		}
	}
}

func TestPingTestsHaveRTTs(t *testing.T) {
	ds := smallDataset(t)
	pings := ds.Filter(ByKind(Ping), ByNetwork(channel.Verizon))
	if len(pings) == 0 {
		t.Skip("no VZ ping windows at this scale")
	}
	total := 0
	for _, p := range pings {
		total += len(p.RTTsMs)
		for _, ms := range p.RTTsMs {
			if ms < 20 || ms > 500 {
				t.Fatalf("implausible RTT %v ms", ms)
			}
		}
	}
	if total == 0 {
		t.Fatal("no RTT samples collected")
	}
}

func TestDriveTraceExtraction(t *testing.T) {
	ds := smallDataset(t)
	d := ds.Drives[0]
	tr := d.Trace(channel.StarlinkMobility)
	if len(tr.Samples) != len(d.Fixes) {
		t.Fatalf("trace length %d != fixes %d", len(tr.Samples), len(d.Fixes))
	}
	if tr.Network != channel.StarlinkMobility {
		t.Fatal("trace network wrong")
	}
}

// flatTestTrace builds a constant trace for fluid-model validation.
func flatTestTrace(down float64, rtt time.Duration, loss float64, secs int) *channel.Trace {
	tr := &channel.Trace{Network: channel.StarlinkMobility}
	for i := 0; i <= secs; i++ {
		tr.Samples = append(tr.Samples, channel.Sample{
			At: time.Duration(i) * time.Second, DownMbps: down, UpMbps: down / 10,
			RTT: rtt, LossDown: loss, LossUp: loss / 2,
		})
	}
	return tr
}

// TestFluidMatchesPacketLevel validates the fluid approximation against
// the packet-level simulator across loss regimes: it must stay within a
// factor band, and preserve ordering in loss.
func TestFluidMatchesPacketLevel(t *testing.T) {
	cases := []struct {
		down float64
		rtt  time.Duration
		loss float64
	}{
		{100, 40 * time.Millisecond, 0},
		{100, 40 * time.Millisecond, 0.002},
		{200, 60 * time.Millisecond, 0.005},
		{150, 60 * time.Millisecond, 0.01},
	}
	prevFluid := 1e18
	for _, c := range cases {
		tr := flatTestTrace(c.down, c.rtt, c.loss, 40)
		// Packet level.
		eng := emu.NewEngine()
		dp := emu.NewDuplexPath(eng, tr, emu.PathConfig{Seed: 9, QueueBytes: 1 << 20})
		conn := tcp.NewDownload(eng, dp, 1, tcp.Config{})
		conn.Start()
		eng.RunUntil(30 * time.Second)
		conn.Stop()
		packet := conn.MeanGoodputMbps(30 * time.Second)
		// Fluid.
		fluid := FluidTCP{Flows: 1}.Run(tr, rand.New(rand.NewSource(9))).MeanGoodputMbps
		if fluid < packet/3 || fluid > packet*3 {
			t.Fatalf("loss=%v: fluid %v vs packet %v outside 3x band", c.loss, fluid, packet)
		}
		if c.loss > 0 && fluid > prevFluid*1.3 {
			t.Fatalf("fluid model not (roughly) monotone in loss: %v after %v", fluid, prevFluid)
		}
		prevFluid = fluid
	}
}

func TestFluidParallelismHelpsUnderLoss(t *testing.T) {
	tr := flatTestTrace(150, 60*time.Millisecond, 0.008, 120)
	one := FluidTCP{Flows: 1}.Run(tr, rand.New(rand.NewSource(1))).MeanGoodputMbps
	four := FluidTCP{Flows: 4}.Run(tr, rand.New(rand.NewSource(1))).MeanGoodputMbps
	eight := FluidTCP{Flows: 8}.Run(tr, rand.New(rand.NewSource(1))).MeanGoodputMbps
	if four < one*1.3 {
		t.Fatalf("4P (%v) should clearly beat 1P (%v) under loss", four, one)
	}
	if eight < four*1.05 {
		t.Fatalf("8P (%v) should beat 4P (%v)", eight, four)
	}
	if eight > 150 {
		t.Fatalf("8P (%v) exceeds capacity", eight)
	}
}

func TestFluidOutageCollapses(t *testing.T) {
	tr := &channel.Trace{Network: channel.StarlinkRoam}
	for i := 0; i <= 30; i++ {
		s := channel.Sample{At: time.Duration(i) * time.Second, DownMbps: 100, RTT: 50 * time.Millisecond}
		if i >= 10 && i < 20 {
			s.Outage = true
			s.DownMbps = 0
		}
		tr.Samples = append(tr.Samples, s)
	}
	res := FluidTCP{}.Run(tr, rand.New(rand.NewSource(2)))
	for i, g := range res.GoodputMbps {
		if i >= 10 && i < 20 && g != 0 {
			t.Fatalf("goodput %v during outage second %d", g, i)
		}
	}
	if res.MeanGoodputMbps <= 0 {
		t.Fatal("no goodput outside outage")
	}
}

func TestFluidRetransRateTracksLoss(t *testing.T) {
	tr := flatTestTrace(150, 60*time.Millisecond, 0.006, 120)
	res := FluidTCP{}.Run(tr, rand.New(rand.NewSource(3)))
	if res.RetransRate < 0.003 || res.RetransRate > 0.03 {
		t.Fatalf("retrans rate %v for 0.6%% loss", res.RetransRate)
	}
}
