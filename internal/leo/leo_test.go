package leo

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"satcell/internal/channel"
	"satcell/internal/geo"
	"satcell/internal/stats"
)

// bestAt and viewAt ask c about user at time offset at through a fresh
// Observer.
func bestAt(c *Constellation, user geo.LatLon, at time.Duration, minElevDeg float64, keep func(SatView) bool) (SatView, bool) {
	o := NewObserver(user, at)
	return c.Best(&o, minElevDeg, keep)
}

func viewAt(c *Constellation, i int, user geo.LatLon, at time.Duration) SatView {
	o := NewObserver(user, at)
	return c.View(i, &o)
}

func TestOneWayPropagationEquation1(t *testing.T) {
	// Eq. (1) of the paper: 550 km / 299792 km/s = 1.835 ms.
	got := OneWayPropagation(550)
	want := 1835 * time.Microsecond
	if diff := got - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("OneWayPropagation(550) = %v, want ~%v", got, want)
	}
}

func TestSlantRTT(t *testing.T) {
	got := SlantRTT(550)
	if math.Abs(got.Seconds()-2*1.835e-3) > 1e-5 {
		t.Fatalf("SlantRTT(550) = %v", got)
	}
}

func TestShellPeriod(t *testing.T) {
	p := StarlinkShell().PeriodSeconds()
	// A 550 km circular orbit has a ~95.6 minute period.
	if p < 5600 || p > 5850 {
		t.Fatalf("period = %v s, want ~5730", p)
	}
}

func TestConstellationSize(t *testing.T) {
	c := NewConstellation(StarlinkShell())
	if len(c.sats) != 72*22 {
		t.Fatalf("size = %d", len(c.sats))
	}
}

func TestVisibleSatellitesMidLatitude(t *testing.T) {
	c := NewConstellation(StarlinkShell())
	user := geo.LatLon{Lat: 44.0, Lon: -90.0}
	for _, at := range []time.Duration{0, time.Minute, 10 * time.Minute, time.Hour} {
		views := visible(c, user, at, 25)
		if len(views) < 2 || len(views) > 60 {
			t.Fatalf("at %v: %d satellites above 25°, expected a handful", at, len(views))
		}
		for _, v := range views {
			if v.ElevationDeg < 25 || v.ElevationDeg > 90 {
				t.Fatalf("elevation %v out of range", v.ElevationDeg)
			}
			if v.AzimuthDeg < 0 || v.AzimuthDeg >= 360 {
				t.Fatalf("azimuth %v out of range", v.AzimuthDeg)
			}
			// Slant range must be between the altitude (overhead) and
			// the horizon distance (~2 600 km for min elevation 0).
			if v.SlantRangeKm < 549 || v.SlantRangeKm > 1500 {
				t.Fatalf("slant range %v km implausible for el %v", v.SlantRangeKm, v.ElevationDeg)
			}
		}
	}
}

func TestSlantRangeMatchesElevationGeometry(t *testing.T) {
	c := NewConstellation(StarlinkShell())
	user := geo.LatLon{Lat: 44.0, Lon: -90.0}
	for _, v := range visible(c, user, 5*time.Minute, 25) {
		// Law of cosines on the Earth-centre triangle.
		el := v.ElevationDeg * math.Pi / 180
		re := earthRadiusKm
		r := earthRadiusKm + 550
		want := -re*math.Sin(el) + math.Sqrt(re*re*math.Sin(el)*math.Sin(el)+r*r-re*re)
		if math.Abs(v.SlantRangeKm-want) > 5 {
			t.Fatalf("slant %v vs geometric %v at el %v", v.SlantRangeKm, want, v.ElevationDeg)
		}
	}
}

func TestBestPrefersUnobstructed(t *testing.T) {
	c := NewConstellation(StarlinkShell())
	user := geo.LatLon{Lat: 44.0, Lon: -90.0}
	all, okAll := bestAt(c, user, 0, 25, nil)
	if !okAll {
		t.Fatal("no satellite visible at all")
	}
	// Excluding the best one must pick a different, lower satellite.
	excl := all.Index
	second, ok := bestAt(c, user, 0, 25, func(v SatView) bool { return v.Index != excl })
	if !ok {
		t.Fatal("no second satellite")
	}
	if second.Index == excl {
		t.Fatal("keep predicate ignored")
	}
	if second.ElevationDeg > all.ElevationDeg {
		t.Fatal("Best did not return max elevation")
	}
	// Rejecting everything reports ok=false with the best view anyway.
	v, ok := bestAt(c, user, 0, 25, func(SatView) bool { return false })
	if ok || v.Index != all.Index {
		t.Fatalf("Best with reject-all: ok=%v idx=%d", ok, v.Index)
	}
}

func TestViewMatchesVisible(t *testing.T) {
	c := NewConstellation(StarlinkShell())
	user := geo.LatLon{Lat: 42.3, Lon: -83.0}
	views := visible(c, user, time.Minute, 25)
	if len(views) == 0 {
		t.Fatal("no visible satellites")
	}
	v := views[0]
	re := viewAt(c, v.Index, user, time.Minute)
	if math.Abs(re.ElevationDeg-v.ElevationDeg) > 1e-9 || re.ID != v.ID {
		t.Fatalf("View disagrees with visible: %+v vs %+v", re, v)
	}
}

func TestServingSatelliteChangesOverTime(t *testing.T) {
	// LEO satellites move ~7.6 km/s; the best satellite must change
	// within a few minutes.
	c := NewConstellation(StarlinkShell())
	user := geo.LatLon{Lat: 44.0, Lon: -90.0}
	first, _ := bestAt(c, user, 0, 25, nil)
	changed := false
	for at := time.Duration(0); at <= 10*time.Minute; at += 15 * time.Second {
		v, _ := bestAt(c, user, at, 25, nil)
		if v.Index != first.Index {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("serving satellite never changed in 10 minutes")
	}
}

func TestSkylineObstruction(t *testing.T) {
	var s Skyline
	for i := range s.elevDeg {
		s.elevDeg[i] = 30
	}
	if !s.Obstructed(10, 20) {
		t.Fatal("20° below a 30° skyline should be obstructed")
	}
	if s.Obstructed(10, 45) {
		t.Fatal("45° above a 30° skyline should be clear")
	}
	// Azimuth normalisation.
	if !s.Obstructed(-10, 20) || !s.Obstructed(370, 20) {
		t.Fatal("azimuth wrap-around broken")
	}
}

func TestObstructionByAreaOrdering(t *testing.T) {
	u := ObstructionByArea(geo.Urban)
	s := ObstructionByArea(geo.Suburban)
	r := ObstructionByArea(geo.Rural)
	if !(u.MeanElevDeg > s.MeanElevDeg && s.MeanElevDeg >= r.MeanElevDeg) {
		t.Fatal("obstruction must decrease urban -> rural")
	}
	if !(u.OpenFraction < s.OpenFraction && s.OpenFraction <= r.OpenFraction) {
		t.Fatal("open-sky fraction must increase urban -> rural")
	}
	// §5.1: suburban obstruction conditions are close to rural ones.
	if s.MeanElevDeg-r.MeanElevDeg > 10 {
		t.Fatal("suburban should be close to rural")
	}
}

func TestSampleSkylineRespectsParams(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	p := ObstructionParams{MeanElevDeg: 40, StdElevDeg: 5, OpenFraction: 0.5, SceneKm: 1}
	open, blockedSum, blockedN := 0, 0.0, 0
	for i := 0; i < 200; i++ {
		sky := SampleSkyline(r, p)
		for _, e := range sky.elevDeg {
			if e == 0 {
				open++
			} else {
				blockedSum += e
				blockedN++
			}
		}
	}
	total := 200 * skySectors
	frac := float64(open) / float64(total)
	if frac < 0.42 || frac > 0.58 {
		t.Fatalf("open fraction = %v, want ~0.5", frac)
	}
	if mean := blockedSum / float64(blockedN); mean < 35 || mean > 45 {
		t.Fatalf("blocked mean elevation = %v, want ~40", mean)
	}
}

func TestPlans(t *testing.T) {
	rm, mob := RoamPlan(), MobilityPlan()
	if rm.Network != channel.StarlinkRoam || mob.Network != channel.StarlinkMobility {
		t.Fatal("plan networks wrong")
	}
	if !(mob.PriorityFactor > rm.PriorityFactor) {
		t.Fatal("Mobility must have higher priority")
	}
	if !(mob.MinElevationDeg < rm.MinElevationDeg) {
		t.Fatal("Mobility dish must have the wider field of view")
	}
	if !(mob.TrackingLossProb < rm.TrackingLossProb) {
		t.Fatal("Mobility must track better in motion")
	}
}

func sampleModel(t *testing.T, plan Plan, area geo.AreaType, secs int, seed int64) []channel.Sample {
	t.Helper()
	cons := NewConstellation(StarlinkShell())
	m := newModel(plan, cons, seed, newShareTable(seed))
	pos := geo.LatLon{Lat: 44.35, Lon: -90.8}
	out := make([]channel.Sample, 0, secs)
	for i := 0; i < secs; i++ {
		env := channel.Env{
			At:       time.Duration(i) * time.Second,
			Pos:      geo.Destination(pos, 90, float64(i)*0.025), // ~90 km/h
			SpeedKmh: 90,
			Area:     area,
		}
		out = append(out, m.Sample(env))
	}
	return out
}

// meanDown is the mean downlink rate of ss.
func meanDown(ss []channel.Sample) float64 {
	down := make([]float64, len(ss))
	for i, s := range ss {
		down[i] = s.DownMbps
	}
	return stats.Mean(down)
}

func TestModelRuralThroughputBands(t *testing.T) {
	samples := sampleModel(t, MobilityPlan(), geo.Rural, 1800, 7)
	downs := make([]float64, 0, len(samples))
	for _, s := range samples {
		downs = append(downs, s.DownMbps)
	}
	sum := stats.Summarize(downs)
	// Rural Mobility should be strong: median in the 150-330 band.
	if sum.Median < 150 || sum.Median > 330 {
		t.Fatalf("rural MOB median = %v", sum.Median)
	}
	high := 0
	for _, d := range downs {
		if d > 100 {
			high++
		}
	}
	if frac := float64(high) / float64(len(downs)); frac < 0.6 {
		t.Fatalf("rural MOB high-performance fraction = %v, want > 0.6", frac)
	}
}

func TestModelUrbanWorseThanRural(t *testing.T) {
	rural := sampleModel(t, MobilityPlan(), geo.Rural, 1200, 3)
	urban := sampleModel(t, MobilityPlan(), geo.Urban, 1200, 3)
	mr, mu := meanDown(rural), meanDown(urban)
	if mu >= mr {
		t.Fatalf("urban MOB mean %v should be below rural %v", mu, mr)
	}
	outages := func(ss []channel.Sample) float64 {
		n := 0
		for _, s := range ss {
			if s.Outage {
				n++
			}
		}
		return float64(n) / float64(len(ss))
	}
	if outages(urban) <= outages(rural) {
		t.Fatal("urban outage rate should exceed rural")
	}
}

func TestModelRoamBelowMobility(t *testing.T) {
	for _, area := range []geo.AreaType{geo.Rural, geo.Suburban} {
		rm := sampleModel(t, RoamPlan(), area, 1200, 11)
		mob := sampleModel(t, MobilityPlan(), area, 1200, 11)
		if mr, mm := meanDown(rm), meanDown(mob); mm < 1.4*mr {
			t.Fatalf("%v: MOB mean %v not clearly above RM mean %v", area, mm, mr)
		}
	}
}

func TestModelUplinkAsymmetry(t *testing.T) {
	samples := sampleModel(t, MobilityPlan(), geo.Rural, 1200, 5)
	var down, up []float64
	for _, s := range samples {
		if !s.Outage {
			down = append(down, s.DownMbps)
			up = append(up, s.UpMbps)
		}
	}
	ratio := stats.Mean(down) / stats.Mean(up)
	if ratio < 7 || ratio > 13 {
		t.Fatalf("down/up ratio = %v, want ~10", ratio)
	}
}

func TestModelRTTBand(t *testing.T) {
	samples := sampleModel(t, MobilityPlan(), geo.Rural, 1200, 9)
	rtts := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.Outage || s.RTT == 0 {
			continue
		}
		rtts = append(rtts, s.RTT.Seconds()*1000)
	}
	sum := stats.Summarize(rtts)
	if sum.Median < 45 || sum.Median > 95 {
		t.Fatalf("Starlink median RTT = %v ms, want 50-90", sum.Median)
	}
	if sum.Min < 2*1.8 {
		t.Fatalf("RTT below physical propagation floor: %v ms", sum.Min)
	}
}

func TestModelLossElevatedButBounded(t *testing.T) {
	samples := sampleModel(t, MobilityPlan(), geo.Rural, 1800, 13)
	var losses []float64
	for _, s := range samples {
		if !s.Outage {
			losses = append(losses, s.LossDown)
		}
	}
	loss := stats.Mean(losses)
	// Average random loss on the clear-sky Starlink path is a few
	// hundredths of a percent baseline plus burst episodes; combined
	// with handover gaps and outage-probe retransmissions this yields
	// the paper's 0.3-1.3% TCP retransmission rates.
	if loss < 0.0002 || loss > 0.02 {
		t.Fatalf("mean loss = %v", loss)
	}
}

func TestModelResetReproducible(t *testing.T) {
	cons := NewConstellation(StarlinkShell())
	m := newModel(MobilityPlan(), cons, 21, newShareTable(21))
	env := channel.Env{Pos: geo.LatLon{Lat: 44, Lon: -90}, SpeedKmh: 60, Area: geo.Rural}
	a := make([]channel.Sample, 50)
	for i := range a {
		env.At = time.Duration(i) * time.Second
		a[i] = m.Sample(env)
	}
	m.Reset()
	for i := range a {
		env.At = time.Duration(i) * time.Second
		got := m.Sample(env)
		if got != a[i] {
			t.Fatalf("sample %d differs after Reset", i)
		}
	}
}

func TestModelHandoversOccur(t *testing.T) {
	samples := sampleModel(t, MobilityPlan(), geo.Rural, 1800, 17)
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
	// 30 minutes of drive must see several satellite handovers (the
	// scheduler epoch is 15 s; satellites pass in ~2-4 minutes).
	if changes < 5 {
		t.Fatalf("only %d handovers in 30 min", changes)
	}
}

func TestClutterOffAblation(t *testing.T) {
	// Disabling street clutter must lift urban throughput sharply —
	// the DESIGN.md ablation isolating why Starlink loses downtown.
	on := MobilityPlan()
	off := MobilityPlan()
	off.ClutterAdd = -1 // clamps the clutter probability to zero
	cons := NewConstellation(StarlinkShell())
	mean := func(p Plan) float64 {
		m := newModel(p, cons, 33, newShareTable(33))
		pos := geo.LatLon{Lat: 41.88, Lon: -87.63}
		down := make([]float64, 1200)
		for i := range down {
			env := channel.Env{
				At:       time.Duration(i) * time.Second,
				Pos:      geo.Destination(pos, 90, float64(i)*0.01),
				SpeedKmh: 36,
				Area:     geo.Urban,
			}
			down[i] = m.Sample(env).DownMbps
		}
		return stats.Mean(down)
	}
	withClutter, without := mean(on), mean(off)
	if without < withClutter*1.5 {
		t.Fatalf("clutter off (%v) should clearly beat clutter on (%v) in urban", without, withClutter)
	}
}

func TestStarlinkShellsRoster(t *testing.T) {
	shells := starlinkShells()
	if len(shells) != 5 {
		t.Fatalf("want 5 Gen1 shells, got %d", len(shells))
	}
	total := 0
	for _, sh := range shells {
		if sh.AltitudeKm < 500 || sh.AltitudeKm > 600 {
			t.Fatalf("implausible altitude %v", sh.AltitudeKm)
		}
		total += sh.Planes * sh.SatsPerPlane
	}
	// Gen1 filing totals ~4,408 satellites.
	if total < 4000 || total > 4800 {
		t.Fatalf("Gen1 total = %d satellites", total)
	}
}

// TestPassNoLongerThanFootprintOverSpeed checks the geometry against
// SNIPPETS.md's closed forms. Snippet 3's footprint at minimum elevation
// α is the central angle ψ = π/2 − asin(R·cos α/(R+h)) − α, and snippet
// 1's longest dwell in a footprint is its chord through the centre over
// the satellite's speed: 2ψ/ω at orbital rate ω. A ground point turns
// with the Earth at up to ω_E, so a satellite's ground track crosses the
// footprint at no less than ω − ω_E: the slack is that factor,
// ω/(ω − ω_E) ≈ 1.07, plus a second for sampling once a second.
func TestPassNoLongerThanFootprintOverSpeed(t *testing.T) {
	c := NewConstellation(StarlinkShell())
	omega := 2 * math.Pi / c.period
	re, r := earthRadiusKm, c.radius
	users := []geo.LatLon{{Lat: 44.35, Lon: -90.8}, {Lat: 0, Lon: 0}, {Lat: -33.9, Lon: 151.2}, {Lat: 52, Lon: 5}}
	for _, plan := range []Plan{MobilityPlan(), RoamPlan()} {
		alpha := plan.MinElevationDeg * math.Pi / 180
		psi := math.Pi/2 - math.Asin(re*math.Cos(alpha)/r) - alpha
		chord := 2 * psi / omega
		bound := chord*omega/(omega-earthRotRadPerS) + 1
		longest := 0.0
		for _, user := range users {
			runs := map[int]int{} // satellite index -> consecutive seconds visible
			for sec := 0; sec <= 4*3600; sec++ {
				seen := map[int]bool{}
				for _, v := range visible(c, user, time.Duration(sec)*time.Second, plan.MinElevationDeg) {
					seen[v.Index] = true
					runs[v.Index]++
				}
				for i, n := range runs {
					if seen[i] {
						continue
					}
					// n samples one second apart span n-1 seconds.
					if d := float64(n - 1); d > bound {
						t.Fatalf("%v, mask %v°: satellite %d visible for %v s, bound 2ψ/(ω−ω_E) + 1 s = %.1f s",
							user, plan.MinElevationDeg, i, d, bound)
					} else if d > longest {
						longest = d
					}
					delete(runs, i)
				}
			}
		}
		// The bound must be tight enough to mean something: some pass
		// over four hours at four points comes near the zenith.
		if longest < chord/2 {
			t.Fatalf("mask %v°: longest pass %v s, under half the chord time %.1f s", plan.MinElevationDeg, longest, chord)
		}
		t.Logf("mask %v°: longest pass %v s, 2ψ/ω = %.1f s, bound %.1f s", plan.MinElevationDeg, longest, chord, bound)
	}
}

// TestModelReselectsOnlyAtEpochMaskOrReacquire checks when leo.Model may
// change its serving satellite: at a 15 s epoch boundary, when the
// serving satellite drops below the plan's elevation mask, or after
// ReacquireSeconds consecutive seconds behind the skyline. Every change
// in an urban drive, where obstruction is common, must meet one of the
// three, and both the epoch and the in-epoch causes must occur.
func TestModelReselectsOnlyAtEpochMaskOrReacquire(t *testing.T) {
	cons := NewConstellation(StarlinkShell())
	for _, plan := range []Plan{MobilityPlan(), RoamPlan()} {
		var atEpoch, inEpoch int
		for _, seed := range []int64{3, 42} {
			m := newModel(plan, cons, seed, newShareTable(seed))
			start := geo.LatLon{Lat: 41.88, Lon: -87.63}
			prev, obstructed := -1, 0 // previous serving satellite; its seconds behind the skyline
			for sec := 0; sec < 1800; sec++ {
				env := channel.Env{
					At:       time.Duration(sec) * time.Second,
					Pos:      geo.Destination(start, 90, float64(sec)*0.01),
					SpeedKmh: 36,
					Area:     geo.Urban,
				}
				m.Sample(env)
				if prev >= 0 {
					v := viewAt(cons, prev, env.Pos, env.At)
					if m.sc.skyline.Obstructed(v.AzimuthDeg, v.ElevationDeg) {
						obstructed++
					} else {
						obstructed = 0
					}
					if m.serving != prev {
						switch {
						case sec%EpochSeconds == 0:
							atEpoch++
						case v.ElevationDeg < plan.MinElevationDeg || obstructed >= plan.ReacquireSeconds:
							inEpoch++
						default:
							t.Fatalf("%v seed %d, second %d: serving %d -> %d inside an epoch, at %.2f° elevation, %d s obstructed",
								plan.Network, seed, sec, prev, m.serving, v.ElevationDeg, obstructed)
						}
					}
				}
				if m.serving != prev {
					obstructed = 0
				}
				prev = m.serving
			}
		}
		if atEpoch == 0 || inEpoch == 0 {
			t.Fatalf("%v: %d changes at epoch boundaries and %d inside epochs; want both", plan.Network, atEpoch, inEpoch)
		}
	}
}
