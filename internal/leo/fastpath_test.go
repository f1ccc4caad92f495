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

// visibleUnculled is Visible without plane culling: every satellite goes
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

// TestVisibleCulledMatchesUnculled checks plane culling against the
// plain scan over every satellite: the same views, bit for bit, in the
// same order, for both plans' elevation masks and every Gen1 shell.
func TestVisibleCulledMatchesUnculled(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := fastPathPoints(rng, 150)
	var views, culledQueries, queries int
	for _, sh := range starlinkShells() {
		c := NewConstellation(sh)
		for _, minEl := range []float64{MobilityPlan().MinElevationDeg, RoamPlan().MinElevationDeg} {
			for _, p := range pts {
				at := time.Duration(rng.Int63n(int64(24 * time.Hour)))
				got := c.Visible(p, at, minEl)
				want := visibleUnculled(c, p, at, minEl)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("shell %+v, %v at %v, min elevation %v:\nculled   %+v\nunculled %+v",
						sh, p, at, minEl, got, want)
				}
				views += len(want)
				q := c.newVisQuery(p, at, minEl)
				for lo := 0; lo < len(c.sats); lo += sh.SatsPerPlane {
					queries++
					if !c.planeReaches(lo, &q) {
						culledQueries++
					}
				}
			}
		}
	}
	// Guard against a vacuous pass: the sky must hold satellites, and
	// culling must actually skip planes.
	if views == 0 || culledQueries == 0 || culledQueries == queries {
		t.Fatalf("degenerate coverage: %d views, %d of %d plane checks culled", views, culledQueries, queries)
	}
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
