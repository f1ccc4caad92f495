package mobility

import (
	"math/rand"
	"testing"
	"time"

	"satcell/internal/geo"
)

func testRoute(t *testing.T) *Route {
	t.Helper()
	start := geo.LatLon{Lat: 44.35, Lon: -90.8} // rural WI
	mid := geo.Destination(start, 90, 10)
	end := geo.Destination(mid, 90, 10)
	r, err := NewRoute("test", "WI", start, []Segment{
		{To: mid, SpeedLimitKmh: 100},
		{To: end, SpeedLimitKmh: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewRouteErrors(t *testing.T) {
	if _, err := NewRoute("x", "MI", geo.LatLon{}, nil); err == nil {
		t.Fatal("expected error for empty route")
	}
}

func TestRouteGeometry(t *testing.T) {
	r := testRoute(t)
	if l := r.LengthKm(); l < 19.9 || l > 20.1 {
		t.Fatalf("length = %v, want ~20", l)
	}
	if lim := r.LimitAt(5); lim != 100 {
		t.Fatalf("LimitAt(5) = %v", lim)
	}
	if lim := r.LimitAt(15); lim != 60 {
		t.Fatalf("LimitAt(15) = %v", lim)
	}
}

func TestSpeedLimitClamping(t *testing.T) {
	start := geo.LatLon{Lat: 44, Lon: -90}
	r, err := NewRoute("fast", "WI", start, []Segment{
		{To: geo.Destination(start, 0, 5), SpeedLimitKmh: 130}, // above campaign cap
		{To: geo.Destination(start, 0, 10), SpeedLimitKmh: -5}, // invalid
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.LimitAt(1) != MaxSpeedKmh {
		t.Fatalf("limit above cap should clamp to %v, got %v", MaxSpeedKmh, r.LimitAt(1))
	}
	if r.LimitAt(7) != MaxSpeedKmh {
		t.Fatalf("invalid limit should default to cap, got %v", r.LimitAt(7))
	}
}

func TestDriveCompletesRoute(t *testing.T) {
	r := testRoute(t)
	gaz := geo.DefaultGazetteer()
	fixes := Drive(r, gaz, rand.New(rand.NewSource(1)))
	if len(fixes) == 0 {
		t.Fatal("no fixes")
	}
	last := fixes[len(fixes)-1]
	if last.DistKm < r.LengthKm()-0.2 {
		t.Fatalf("drive stopped at %v of %v km", last.DistKm, r.LengthKm())
	}
	// 20 km at <=100 km/h takes at least 12 minutes.
	if last.At < 12*time.Minute {
		t.Fatalf("drive too fast: %v", last.At)
	}
}

func TestDriveSpeedRespectsCapAndAccel(t *testing.T) {
	r := testRoute(t)
	gaz := geo.DefaultGazetteer()
	fixes := Drive(r, gaz, rand.New(rand.NewSource(2)))
	prev := 0.0
	for i, f := range fixes {
		if f.SpeedKmh < 0 || f.SpeedKmh > MaxSpeedKmh {
			t.Fatalf("fix %d speed %v outside [0, %v]", i, f.SpeedKmh, MaxSpeedKmh)
		}
		if f.SpeedKmh > prev+accelKmhPerS+1e-4 {
			t.Fatalf("fix %d accelerated %v -> %v km/h in 1s", i, prev, f.SpeedKmh)
		}
		prev = f.SpeedKmh
	}
}

func TestDriveMonotoneTimeAndDistance(t *testing.T) {
	r := testRoute(t)
	fixes := Drive(r, geo.DefaultGazetteer(), rand.New(rand.NewSource(3)))
	for i := 1; i < len(fixes); i++ {
		if fixes[i].At <= fixes[i-1].At {
			t.Fatalf("time not increasing at %d", i)
		}
		if fixes[i].DistKm < fixes[i-1].DistKm {
			t.Fatalf("odometer went backwards at %d", i)
		}
	}
}

func TestDriveRuralIsRural(t *testing.T) {
	r := testRoute(t)
	fixes := Drive(r, geo.DefaultGazetteer(), rand.New(rand.NewSource(4)))
	for _, f := range fixes {
		if f.Area != geo.Rural {
			t.Fatalf("rural test route classified %v at %v", f.Area, f.Pos)
		}
	}
}

func TestUrbanDrivesSlower(t *testing.T) {
	gaz := geo.DefaultGazetteer()
	rng := rand.New(rand.NewSource(5))
	urban := cityLoop("chi", "IL", geo.LatLon{Lat: 41.8781, Lon: -87.6298}, 5)
	uf := Drive(urban, gaz, rng)
	var sum float64
	for _, f := range uf {
		sum += f.SpeedKmh
	}
	avgUrban := sum / float64(len(uf))
	if avgUrban > 60 {
		t.Fatalf("urban average speed %v too high", avgUrban)
	}
}

func TestDefaultRoutesCoverFiveStatesAndDistance(t *testing.T) {
	routes := DefaultRoutes()
	if len(routes) < 10 {
		t.Fatalf("route corpus too small: %d", len(routes))
	}
	states := map[string]bool{}
	total := 0.0
	for _, r := range routes {
		states[r.State] = true
		total += r.LengthKm()
		if r.LengthKm() <= 0 {
			t.Fatalf("route %s has no length", r.Name)
		}
	}
	for _, s := range []string{"MI", "IN", "IL", "WI", "MN"} {
		if !states[s] {
			t.Fatalf("missing state %s in corpus", s)
		}
	}
	// One full traversal of the corpus should be a substantial fraction
	// of the paper's 3,800 km; the campaign repeats routes to reach it.
	if total < 900 {
		t.Fatalf("corpus total %v km too short", total)
	}
}

func TestTotals(t *testing.T) {
	r := testRoute(t)
	gaz := geo.DefaultGazetteer()
	d1 := Drive(r, gaz, rand.New(rand.NewSource(6)))
	d2 := Drive(r, gaz, rand.New(rand.NewSource(7)))
	// Two drives of the ~20 km test route: the odometer reads ~40 km
	// and the clock at least 20 minutes.
	last1, last2 := d1[len(d1)-1], d2[len(d2)-1]
	if got := last1.DistKm + last2.DistKm; got < 39 || got > 41 {
		t.Fatalf("total distance = %v km", got)
	}
	if got := last1.At + last2.At; got < 20*time.Minute {
		t.Fatalf("total duration = %v", got)
	}
}

func TestDriveDeterministicForSeed(t *testing.T) {
	r := testRoute(t)
	gaz := geo.DefaultGazetteer()
	a := Drive(r, gaz, rand.New(rand.NewSource(42)))
	b := Drive(r, gaz, rand.New(rand.NewSource(42)))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fix %d differs", i)
		}
	}
}
