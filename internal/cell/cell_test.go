package cell

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"satcell/internal/channel"
	"satcell/internal/geo"
	"satcell/internal/stats"
)

func TestCarriersRoster(t *testing.T) {
	cs := Carriers()
	if len(cs) != 3 {
		t.Fatalf("want 3 carriers, got %d", len(cs))
	}
	for _, c := range cs {
		if !c.Network.Cellular() {
			t.Fatalf("%v is not cellular", c.Network)
		}
		for _, a := range geo.AreaTypes {
			p := c.Deployment[a]
			if p.SiteDensityPerKm2 <= 0 || p.MaxRangeKm <= 0 {
				t.Fatalf("%v/%v deployment unset", c.Network, a)
			}
		}
		// Urban deployments must always be the densest.
		if !(c.Deployment[geo.Urban].SiteDensityPerKm2 > c.Deployment[geo.Suburban].SiteDensityPerKm2 &&
			c.Deployment[geo.Suburban].SiteDensityPerKm2 > c.Deployment[geo.Rural].SiteDensityPerKm2) {
			t.Fatalf("%v density not monotone", c.Network)
		}
	}
}

// carrierFor looks a built-in carrier up in Carriers.
func carrierFor(n channel.NetworkID) (Carrier, bool) {
	for _, c := range Carriers() {
		if c.Network == n {
			return c, true
		}
	}
	return Carrier{}, false
}

func TestCarrierFor(t *testing.T) {
	if _, ok := carrierFor(channel.StarlinkRoam); ok {
		t.Fatal("RM should not resolve to a carrier")
	}
	c, ok := carrierFor(channel.Verizon)
	if !ok || c.Network != channel.Verizon {
		t.Fatal("Carriers has no VZ")
	}
}

func TestATTTrailsInDeploymentAndLatency(t *testing.T) {
	att, _ := carrierFor(channel.ATT)
	vz, _ := carrierFor(channel.Verizon)
	tm, _ := carrierFor(channel.TMobile)
	for _, a := range geo.AreaTypes {
		if att.Deployment[a].SiteDensityPerKm2 >= vz.Deployment[a].SiteDensityPerKm2 {
			t.Fatalf("ATT should trail VZ in %v density", a)
		}
	}
	if att.CoreRTT <= vz.CoreRTT || att.CoreRTT <= tm.CoreRTT {
		t.Fatal("ATT should have the highest core RTT")
	}
}

func TestRayleighNearestDistribution(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	lambda := 1.0
	n := 50000
	var w stats.Welford
	for i := 0; i < n; i++ {
		w.Add(rayleighNearest(r, lambda))
	}
	// Mean nearest-neighbour distance of a PPP is 1/(2*sqrt(lambda)).
	want := 0.5
	if math.Abs(w.Mean()-want) > 0.02 {
		t.Fatalf("mean nearest distance = %v, want %v", w.Mean(), want)
	}
	if !math.IsInf(rayleighNearest(r, 0), 1) {
		t.Fatal("zero density should give infinite distance")
	}
}

func TestTechString(t *testing.T) {
	if LTE.String() != "LTE" || NR5GLow.String() != "5G-low" {
		t.Fatal("tech names wrong")
	}
}

// driveSample runs a model along a straight drive in one area type.
func driveSample(network channel.NetworkID, area geo.AreaType, secs int, seed int64) []channel.Sample {
	c, _ := carrierFor(network)
	m := NewModel(c, seed)
	pos := geo.LatLon{Lat: 44.35, Lon: -90.8}
	out := make([]channel.Sample, 0, secs)
	for i := 0; i < secs; i++ {
		env := channel.Env{
			At:       time.Duration(i) * time.Second,
			Pos:      geo.Destination(pos, 90, float64(i)*0.022), // ~80 km/h
			SpeedKmh: 80,
			Area:     area,
		}
		out = append(out, m.Sample(env))
	}
	return out
}

func meanDown(ss []channel.Sample) float64 {
	var w stats.Welford
	for _, s := range ss {
		w.Add(s.DownMbps)
	}
	return w.Mean()
}

func TestCellularUrbanBeatsRural(t *testing.T) {
	for _, n := range []channel.NetworkID{channel.ATT, channel.TMobile, channel.Verizon} {
		urban := driveSample(n, geo.Urban, 1500, 3)
		rural := driveSample(n, geo.Rural, 1500, 3)
		mu, mr := meanDown(urban), meanDown(rural)
		if mu <= mr {
			t.Fatalf("%v: urban %v <= rural %v", n, mu, mr)
		}
		minUrban := 80.0
		if n == channel.ATT {
			minUrban = 45 // ATT trails everywhere along the corridor
		}
		if mu < minUrban {
			t.Fatalf("%v urban mean %v too low", n, mu)
		}
		if mr > 80 {
			t.Fatalf("%v rural mean %v too high", n, mr)
		}
	}
}

func TestVerizonOutperformsATT(t *testing.T) {
	// Compare over a mixed drive (suburban + rural segments).
	var vzAll, attAll []float64
	for _, area := range []geo.AreaType{geo.Suburban, geo.Rural} {
		vz := driveSample(channel.Verizon, area, 1200, 5)
		att := driveSample(channel.ATT, area, 1200, 5)
		for i := range vz {
			vzAll = append(vzAll, vz[i].DownMbps)
			attAll = append(attAll, att[i].DownMbps)
		}
	}
	if stats.Mean(vzAll) <= 1.3*stats.Mean(attAll) {
		t.Fatalf("VZ %v not clearly above ATT %v", stats.Mean(vzAll), stats.Mean(attAll))
	}
}

func TestATTRuralDeadZones(t *testing.T) {
	samples := driveSample(channel.ATT, geo.Rural, 2500, 7)
	out := 0
	for _, s := range samples {
		if s.Outage {
			out++
		}
	}
	frac := float64(out) / float64(len(samples))
	if frac < 0.05 || frac > 0.7 {
		t.Fatalf("ATT rural outage fraction = %v, want substantial", frac)
	}
	vzSamples := driveSample(channel.Verizon, geo.Rural, 2500, 7)
	vzOut := 0
	for _, s := range vzSamples {
		if s.Outage {
			vzOut++
		}
	}
	if vzOut >= out {
		t.Fatalf("VZ rural outages (%d) should be below ATT (%d)", vzOut, out)
	}
}

func TestCellularLossLow(t *testing.T) {
	samples := driveSample(channel.Verizon, geo.Suburban, 2000, 9)
	var w stats.Welford
	for _, s := range samples {
		if s.Outage {
			continue
		}
		w.Add(s.LossDown)
	}
	// Cellular loss must sit well below Starlink's (paper Fig. 5).
	if w.Mean() > 0.004 {
		t.Fatalf("cellular mean loss = %v, too high", w.Mean())
	}
}

func TestCellularRTTOrdering(t *testing.T) {
	med := func(n channel.NetworkID) float64 {
		ss := driveSample(n, geo.Suburban, 1200, 11)
		var rtts []float64
		for _, s := range ss {
			if !s.Outage {
				rtts = append(rtts, s.RTT.Seconds()*1000)
			}
		}
		return stats.Median(rtts)
	}
	vz, tm, att := med(channel.Verizon), med(channel.TMobile), med(channel.ATT)
	if !(vz < att && tm < att) {
		t.Fatalf("RTT ordering broken: VZ %v TM %v ATT %v", vz, tm, att)
	}
	if vz < 35 || vz > 70 {
		t.Fatalf("VZ median RTT %v outside 35-70ms", vz)
	}
	if att < 60 || att > 110 {
		t.Fatalf("ATT median RTT %v outside 60-110ms", att)
	}
}

func TestHandoversHappenAndAreBrief(t *testing.T) {
	samples := driveSample(channel.Verizon, geo.Suburban, 1800, 13)
	serving := ""
	changes := 0
	for _, s := range samples {
		if s.Serving != "" && serving != "" && s.Serving != serving {
			changes++
		}
		if s.Serving != "" {
			serving = s.Serving
		}
	}
	// 40 km of suburban driving crosses many cells.
	if changes < 5 {
		t.Fatalf("only %d handovers", changes)
	}
}

func TestUplinkShare(t *testing.T) {
	samples := driveSample(channel.Verizon, geo.Urban, 1200, 15)
	var down, up stats.Welford
	for _, s := range samples {
		if s.Outage {
			continue
		}
		down.Add(s.DownMbps)
		up.Add(s.UpMbps)
	}
	ratio := up.Mean() / down.Mean()
	if math.Abs(ratio-0.25) > 0.05 {
		t.Fatalf("uplink share = %v, want ~0.25", ratio)
	}
}

func TestModelResetReproducible(t *testing.T) {
	c, _ := carrierFor(channel.TMobile)
	m := NewModel(c, 99)
	env := channel.Env{Pos: geo.LatLon{Lat: 43, Lon: -89}, SpeedKmh: 50, Area: geo.Suburban}
	a := make([]channel.Sample, 60)
	for i := range a {
		env.At = time.Duration(i) * time.Second
		a[i] = m.Sample(env)
	}
	m.Reset()
	for i := range a {
		env.At = time.Duration(i) * time.Second
		if got := m.Sample(env); got != a[i] {
			t.Fatalf("sample %d differs after Reset", i)
		}
	}
	if m.Network() != channel.TMobile {
		t.Fatal("Network() wrong")
	}
}

// TestSampleStreamGolden pins every carrier's per-second Sample stream
// over a drive that crosses all three area types, to the digest the
// model gave when it recomputed the serving-cell distance after the
// re-attachment check instead of reusing it. The drive re-attaches on
// area changes, at break distances and in dead zones, so a distance
// reused across a re-attachment changes the digest.
func TestSampleStreamGolden(t *testing.T) {
	const want = "6830f83e7c2321c06690af5f19c0f870cb476be02f8cb7fd8400167cb281b983"
	h := sha256.New()
	cells := 0
	for _, c := range Carriers() {
		for _, seed := range []int64{1, 42, 7} {
			m := NewModel(c, seed)
			pos := geo.LatLon{Lat: 44.35, Lon: -90.8}
			for i := 0; i < 1500; i++ {
				env := channel.Env{
					At:       time.Duration(i) * time.Second,
					Pos:      geo.Destination(pos, 60, float64(i)*0.025),
					SpeedKmh: 90,
					Area:     geo.AreaTypes[(i/200)%len(geo.AreaTypes)],
				}
				fmt.Fprintf(h, "%+v\n", m.Sample(env))
			}
			cells += m.cellSeq
		}
	}
	if cells < 250 {
		t.Fatalf("only %d cell attachments: the drive does not exercise re-attachment", cells)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("Sample stream digest %s, want %s", got, want)
	}
}
