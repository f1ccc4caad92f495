package leo

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"satcell/internal/geo"
)

// visible returns every satellite above minElevDeg as seen from user at
// time offset at, in index order: the views Best chooses from.
func visible(c *Constellation, user geo.LatLon, at time.Duration, minElevDeg float64) []SatView {
	q := c.newVisQuery(user, at, minElevDeg)
	var out []SatView
	c.scan(&q, func(v SatView) { out = append(out, v) })
	return out
}

// visibleUnculled is visible without culling: every satellite goes
// through the dot-product filter and the elevation mask.
func visibleUnculled(c *Constellation, user geo.LatLon, at time.Duration, minElevDeg float64) []SatView {
	q := c.newVisQuery(user, at, minElevDeg)
	var out []SatView
	for i := range c.sats {
		if v, ok := c.visibleView(i, &q); ok {
			out = append(out, v)
		}
	}
	return out
}

// bestOf is Best over a list of views: the first of the highest ones
// keep passes, else the first of the highest ones with ok false.
func bestOf(views []SatView, keep func(SatView) bool) (SatView, bool) {
	bestAny := SatView{Index: -1, ElevationDeg: -90}
	bestKept := SatView{Index: -1, ElevationDeg: -90}
	for _, v := range views {
		if v.ElevationDeg > bestAny.ElevationDeg {
			bestAny = v
		}
		if (keep == nil || keep(v)) && v.ElevationDeg > bestKept.ElevationDeg {
			bestKept = v
		}
	}
	if bestKept.Index >= 0 {
		return bestKept, true
	}
	return bestAny, false
}

// checkCulledMatchesUnculled compares the culled scan and Best against
// the scan of every satellite for one query.
func checkCulledMatchesUnculled(t *testing.T, c *Constellation, user geo.LatLon, at time.Duration, minEl float64) []SatView {
	t.Helper()
	got, want := visible(c, user, at, minEl), visibleUnculled(c, user, at, minEl)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shell %+v, %v at %v, min elevation %v:\nculled   %+v\nunculled %+v",
			c.shell, user, at, minEl, got, want)
	}
	for _, keep := range []func(SatView) bool{nil, func(v SatView) bool { return v.Index%3 != 0 }} {
		gotBest, gotOK := c.Best(user, at, minEl, keep)
		wantBest, wantOK := bestOf(want, keep)
		if gotBest != wantBest || gotOK != wantOK {
			t.Fatalf("shell %+v, %v at %v, min elevation %v: Best %+v %v, unculled %+v %v",
				c.shell, user, at, minEl, gotBest, gotOK, wantBest, wantOK)
		}
	}
	return want
}

// satECIReference is satECI with every sin/cos computed per call, as it
// was before NewConstellation cached the RAAN and inclination terms.
func satECIReference(c *Constellation, i int, t float64) vec3 {
	sh := c.shell
	p, s := i/sh.SatsPerPlane, i%sh.SatsPerPlane
	raan := 2 * math.Pi * float64(p) / float64(sh.Planes)
	interPlane := 2 * math.Pi * float64(sh.PhasingF) * float64(p) /
		float64(sh.Planes*sh.SatsPerPlane)
	phase := 2*math.Pi*float64(s)/float64(sh.SatsPerPlane) + interPlane
	incRad := sh.InclinationDeg * math.Pi / 180
	theta := phase + 2*math.Pi*t/c.period
	cosT, sinT := math.Cos(theta), math.Sin(theta)
	cosO, sinO := math.Cos(raan), math.Sin(raan)
	cosI, sinI := math.Cos(incRad), math.Sin(incRad)
	return vec3{
		x: c.radius * (cosO*cosT - sinO*sinT*cosI),
		y: c.radius * (sinO*cosT + cosO*sinT*cosI),
		z: c.radius * (sinT * sinI),
	}
}

// fastPathPoints returns ground points covering the whole globe: both
// poles, a band of high latitudes (|lat| > 60°) and uniform random
// points.
func fastPathPoints(rng *rand.Rand, n int) []geo.LatLon {
	pts := []geo.LatLon{{Lat: 90, Lon: 0}, {Lat: -90, Lon: 45}, {Lat: 89.999, Lon: -120}}
	for i := 0; i < n; i++ {
		lon := rng.Float64()*360 - 180
		var lat float64
		switch i % 3 {
		case 0:
			lat = 60 + rng.Float64()*30
			if rng.Intn(2) == 0 {
				lat = -lat
			}
		default:
			lat = math.Asin(2*rng.Float64()-1) * 180 / math.Pi
		}
		pts = append(pts, geo.LatLon{Lat: lat, Lon: lon})
	}
	return pts
}

func TestSatECIMatchesUncachedTrig(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, sh := range starlinkShells() {
		c := NewConstellation(sh)
		for k := 0; k < 20; k++ {
			ts := rng.Float64() * 86400
			for i := range c.sats {
				if got, want := c.satECI(i, ts), satECIReference(c, i, ts); got != want {
					t.Fatalf("shell %+v sat %d t=%v: satECI %+v, reference %+v", sh, i, ts, got, want)
				}
			}
		}
	}
}

// TestVisibleCulledMatchesUnculled checks the culled scan, and Best
// with and without a keep predicate, against the plain scan over every
// satellite: the same views, bit for bit, in the same order. Queries
// span five days, both hemispheres and the poles, minimum elevations
// from 0 to 60° and every Gen1 shell.
func TestVisibleCulledMatchesUnculled(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := fastPathPoints(rng, 150)
	var views, planes, culledPlanes, skippedInKept int
	for _, sh := range starlinkShells() {
		c := NewConstellation(sh)
		// -1 stands for a mask drawn per query from [0°, 60°).
		for _, minEl := range []float64{0, MobilityPlan().MinElevationDeg, RoamPlan().MinElevationDeg, 60, -1} {
			for _, p := range pts {
				el := minEl
				if el < 0 {
					el = rng.Float64() * 60
				}
				at := time.Duration(rng.Int63n(int64(5 * 24 * time.Hour)))
				views += len(checkCulledMatchesUnculled(t, c, p, at, el))
				q := c.newVisQuery(p, at, el)
				for lo := 0; lo < len(c.sats); lo += sh.SatsPerPlane {
					planes++
					if _, n := c.planeArc(lo, &q); n == 0 {
						culledPlanes++
					} else {
						skippedInKept += sh.SatsPerPlane - n
					}
				}
			}
		}
	}
	// Guard against a vacuous pass: the sky must hold satellites,
	// culling must skip whole planes, and inside the planes it keeps it
	// must skip satellites too.
	if views == 0 || culledPlanes == 0 || culledPlanes == planes || skippedInKept == 0 {
		t.Fatalf("degenerate coverage: %d views, %d of %d planes culled, %d satellites skipped in kept planes",
			views, culledPlanes, planes, skippedInKept)
	}
}

// FuzzVisibleMatchesUnculled runs the check of
// TestVisibleCulledMatchesUnculled on one query in every Gen1 shell.
// The time is any time.Duration; the seeds in testdata/fuzz hold the
// poles, negative and extreme times, and masks from below the horizon
// to near the zenith.
func FuzzVisibleMatchesUnculled(f *testing.F) {
	shells := starlinkShells()
	cons := make([]*Constellation, len(shells))
	for i, sh := range shells {
		cons[i] = NewConstellation(sh)
	}
	f.Fuzz(func(t *testing.T, lat, lon float64, at int64, minEl float64) {
		if !(math.Abs(lat) <= 90 && math.Abs(lon) <= 360 && math.Abs(minEl) <= 90) {
			t.Skip("outside the query domain")
		}
		for _, c := range cons {
			checkCulledMatchesUnculled(t, c, geo.LatLon{Lat: lat, Lon: lon}, time.Duration(at), minEl)
		}
	})
}

// epochSharesReference replays the AR(1) share recurrence the way each
// model once did on its own: a fresh math/rand source per epoch, seeded
// from the model seed and the epoch.
func epochSharesReference(seed int64, n int) []float64 {
	const mix = int64(-0x61C8864680B583EB)
	logShare := shareLogMu
	out := make([]float64, n)
	for e := int64(0); e < int64(n); e++ {
		eps := rand.New(rand.NewSource(seed ^ (e+1)*mix)).NormFloat64()
		logShare = shareRho*logShare + (1-shareRho)*shareLogMu +
			shareLogSigma*math.Sqrt(1-shareRho*shareRho)*eps
		out[e] = math.Exp(logShare)
	}
	return out
}

func TestEpochShareMatchesPerModelRecurrence(t *testing.T) {
	const epochs = 400
	cons := NewConstellation(StarlinkShell())
	for _, seed := range []int64{0, 1, 42, 42 + 101, -7, math.MaxInt64} {
		want := epochSharesReference(seed, epochs)
		m := NewModel(MobilityPlan(), cons, seed)
		for e := int64(0); e < epochs; e++ {
			if got := m.epochShare(e); got != want[e] {
				t.Fatalf("seed %d epoch %d: share %v, reference %v", seed, e, got, want[e])
			}
		}
		// The process never steps back: an earlier epoch keeps the
		// latest share, and a reset model starts over.
		if got := m.epochShare(3); got != want[epochs-1] {
			t.Fatalf("seed %d: stepping back gave %v, want %v", seed, got, want[epochs-1])
		}
		m.Reset()
		if got := m.epochShare(-1); got != math.Exp(shareLogMu) {
			t.Fatalf("seed %d: reset model's pre-epoch share %v, want %v", seed, got, math.Exp(shareLogMu))
		}
		if got := m.epochShare(7); got != want[7] {
			t.Fatalf("seed %d: reset model epoch 7 share %v, want %v", seed, got, want[7])
		}
	}
}

// TestEpochShareSharedTableConcurrent builds models from one builder on
// several goroutines; each walks the epochs with its own stride, so the
// shared table grows from whichever goroutine gets there first.
func TestEpochShareSharedTableConcurrent(t *testing.T) {
	const epochs = 600
	cons := NewConstellation(StarlinkShell())
	for _, seed := range []int64{3, 42 + 102, -99} {
		want := epochSharesReference(seed, epochs)
		build := ModelBuilder(RoamPlan(), cons, seed)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(stride int64) {
				defer wg.Done()
				m := build().(*Model)
				for e := int64(0); e < epochs; e += stride {
					if got := m.epochShare(e); got != want[e] {
						t.Errorf("seed %d stride %d epoch %d: share %v, reference %v", seed, stride, e, got, want[e])
						return
					}
				}
			}(int64(g%4 + 1))
		}
		wg.Wait()
	}
}

// starlinkShells is the full first-generation Starlink constellation
// (the five shells of the Gen1 FCC filing): inclinations from 53° to
// polar, which the fast paths must handle exactly. The model itself runs
// on StarlinkShell alone, the 53° shell that carried almost all traffic
// when the paper measured.
func starlinkShells() []Shell {
	return []Shell{
		{AltitudeKm: 550, InclinationDeg: 53, Planes: 72, SatsPerPlane: 22, PhasingF: 39},
		{AltitudeKm: 540, InclinationDeg: 53.2, Planes: 72, SatsPerPlane: 22, PhasingF: 41},
		{AltitudeKm: 570, InclinationDeg: 70, Planes: 36, SatsPerPlane: 20, PhasingF: 11},
		{AltitudeKm: 560, InclinationDeg: 97.6, Planes: 6, SatsPerPlane: 58, PhasingF: 1},
		{AltitudeKm: 560, InclinationDeg: 97.6, Planes: 4, SatsPerPlane: 43, PhasingF: 1},
	}
}

var benchView SatView

// BenchmarkBest is the channel sampler's layer probe: one serving
// satellite choice on the 53° shell, from points on the drive corridor
// at times within a day, alternating the Mobility and Roam masks.
func BenchmarkBest(b *testing.B) {
	c := NewConstellation(StarlinkShell())
	rng := rand.New(rand.NewSource(1))
	type query struct {
		user  geo.LatLon
		at    time.Duration
		minEl float64
	}
	masks := []float64{MobilityPlan().MinElevationDeg, RoamPlan().MinElevationDeg}
	qs := make([]query, 1024)
	for i := range qs {
		qs[i] = query{
			user:  geo.LatLon{Lat: 41.5 + 4.5*rng.Float64(), Lon: -94 + 11*rng.Float64()},
			at:    time.Duration(rng.Int63n(int64(24 * time.Hour))),
			minEl: masks[i%len(masks)],
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		benchView, _ = c.Best(q.user, q.at, q.minEl, nil)
	}
}
