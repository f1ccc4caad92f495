package geo

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestDistanceKnownPairs(t *testing.T) {
	// Chicago -> Minneapolis is roughly 570 km great-circle.
	chi := LatLon{41.8781, -87.6298}
	msp := LatLon{44.9778, -93.2650}
	d := DistanceKm(chi, msp)
	if d < 540 || d > 600 {
		t.Fatalf("Chicago-Minneapolis = %v km, want ~570", d)
	}
	if DistanceKm(chi, chi) != 0 {
		t.Fatal("distance to self should be 0")
	}
}

func TestDistanceSymmetryProperty(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := LatLon{math.Mod(lat1, 90), math.Mod(lon1, 180)}
		b := LatLon{math.Mod(lat2, 90), math.Mod(lon2, 180)}
		if math.IsNaN(a.Lat) || math.IsNaN(a.Lon) || math.IsNaN(b.Lat) || math.IsNaN(b.Lon) {
			return true
		}
		d1, d2 := DistanceKm(a, b), DistanceKm(b, a)
		// An anchor's cached cosine gives the same distance to the bit,
		// from either end.
		if NewAnchor(a).DistanceKm(b) != d1 || NewAnchor(b).DistanceKm(a) != d1 {
			return false
		}
		return math.Abs(d1-d2) < 1e-9 && d1 >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDestinationRoundTrip(t *testing.T) {
	start := LatLon{42.0, -85.0}
	for _, bearing := range []float64{0, 45, 90, 180, 270} {
		for _, dist := range []float64{1, 10, 100} {
			end := Destination(start, bearing, dist)
			got := DistanceKm(start, end)
			if math.Abs(got-dist) > 0.01*dist+1e-6 {
				t.Errorf("bearing %v dist %v: travelled %v", bearing, dist, got)
			}
		}
	}
}

func TestDestinationNorth(t *testing.T) {
	start := LatLon{40, -90}
	end := Destination(start, 0, 111.195) // ~1 degree of latitude
	if math.Abs(end.Lat-41) > 0.01 {
		t.Fatalf("northward travel lat = %v, want ~41", end.Lat)
	}
	if math.Abs(end.Lon-(-90)) > 0.01 {
		t.Fatalf("northward travel lon = %v, want -90", end.Lon)
	}
}

func TestPolylineInterpolation(t *testing.T) {
	pts := []LatLon{
		{42, -85},
		Destination(LatLon{42, -85}, 90, 10),
		Destination(Destination(LatLon{42, -85}, 90, 10), 90, 10),
	}
	pl, err := NewPolyline(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pl.LengthKm()-20) > 0.1 {
		t.Fatalf("length = %v, want ~20", pl.LengthKm())
	}
	mid := pl.At(10)
	if d := DistanceKm(mid, pts[1]); d > 0.1 {
		t.Fatalf("At(10) is %v km from expected vertex", d)
	}
	// Clamping.
	if pl.At(-5) != pts[0] {
		t.Fatal("At(-5) should clamp to start")
	}
	if pl.At(1000) != pts[2] {
		t.Fatal("At(+inf) should clamp to end")
	}
}

func TestPolylineMonotoneProperty(t *testing.T) {
	pts := []LatLon{{42, -85}}
	p := pts[0]
	for i := 0; i < 20; i++ {
		p = Destination(p, float64(i*37%360), 3)
		pts = append(pts, p)
	}
	pl, err := NewPolyline(pts)
	if err != nil {
		t.Fatal(err)
	}
	f := func(d1, d2 float64) bool {
		d1 = math.Abs(math.Mod(d1, pl.LengthKm()))
		d2 = math.Abs(math.Mod(d2, pl.LengthKm()))
		if math.IsNaN(d1) || math.IsNaN(d2) {
			return true
		}
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		// Travelling further along the line cannot move you further than
		// the extra path distance (triangle inequality on the path).
		a, b := pl.At(d1), pl.At(d2)
		return DistanceKm(a, b) <= (d2-d1)+0.05
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPolylineErrors(t *testing.T) {
	if _, err := NewPolyline([]LatLon{{1, 1}}); err == nil {
		t.Fatal("expected error for single-point polyline")
	}
}

func TestPolylineSegmentIndex(t *testing.T) {
	pts := []LatLon{
		{42, -85},
		Destination(LatLon{42, -85}, 90, 10),
		Destination(Destination(LatLon{42, -85}, 90, 10), 90, 10),
	}
	pl, _ := NewPolyline(pts)
	if got := pl.SegmentIndex(5); got != 0 {
		t.Fatalf("SegmentIndex(5) = %d", got)
	}
	if got := pl.SegmentIndex(15); got != 1 {
		t.Fatalf("SegmentIndex(15) = %d", got)
	}
	if got := pl.SegmentIndex(-1); got != 0 {
		t.Fatalf("SegmentIndex(-1) = %d", got)
	}
	if got := pl.SegmentIndex(100); got != 1 {
		t.Fatalf("SegmentIndex(100) = %d", got)
	}
}

func TestAreaTypeString(t *testing.T) {
	if Urban.String() != "urban" || Suburban.String() != "suburban" || Rural.String() != "rural" {
		t.Fatal("AreaType names wrong")
	}
	if AreaType(99).String() != "unknown" {
		t.Fatal("unknown AreaType should stringify as unknown")
	}
}

func TestGazetteerClassify(t *testing.T) {
	g := DefaultGazetteer()
	chicago := LatLon{41.8781, -87.6298}
	if got := g.Classify(chicago); got != Urban {
		t.Fatalf("downtown Chicago = %v, want urban", got)
	}
	// ~25 km west of Chicago: inside the metro suburban belt.
	suburb := Destination(chicago, 270, 25)
	if got := g.Classify(suburb); got != Suburban {
		t.Fatalf("Chicago suburb = %v, want suburban", got)
	}
	// Middle of nowhere in central Wisconsin farmland.
	rural := LatLon{44.35, -90.8}
	if got := g.Classify(rural); got != Rural {
		t.Fatalf("central WI = %v, want rural", got)
	}
}

func TestGazetteerNearest(t *testing.T) {
	g := DefaultGazetteer()
	p := LatLon{42.28, -83.74}
	city, d := g.cities[0], DistanceKm(p, g.cities[0].Pos)
	for _, c := range g.cities[1:] {
		if dc := DistanceKm(p, c.Pos); dc < d {
			city, d = c, dc
		}
	}
	if city.Name != "Ann Arbor" {
		t.Fatalf("nearest = %v", city.Name)
	}
	if d > 1 {
		t.Fatalf("distance to Ann Arbor = %v", d)
	}
	empty := NewGazetteer(nil)
	if got := empty.Classify(LatLon{0, 0}); got != Rural {
		t.Fatalf("empty gazetteer classification = %v, want rural", got)
	}
}

func TestGazetteerStates(t *testing.T) {
	g := DefaultGazetteer()
	seen := map[string]bool{}
	for _, c := range g.cities {
		seen[c.State] = true
	}
	var states []string
	for st := range seen {
		states = append(states, st)
	}
	sort.Strings(states)
	if len(states) != 5 {
		t.Fatalf("states = %v, want 5 states", states)
	}
	want := []string{"IL", "IN", "MI", "MN", "WI"}
	for i, s := range want {
		if states[i] != s {
			t.Fatalf("states = %v, want %v", states, want)
		}
	}
}

func TestSmallTownFootprint(t *testing.T) {
	g := DefaultGazetteer()
	// Tomah, WI is a small town: its centre is urban only within ~2 km.
	tomah := LatLon{43.9786, -90.5040}
	if got := g.Classify(tomah); got != Urban {
		t.Fatalf("Tomah centre = %v, want urban", got)
	}
	if got := g.Classify(Destination(tomah, 0, 5)); got != Suburban {
		t.Fatalf("5 km out of Tomah = %v, want suburban", got)
	}
}

// classifyScan is Classify without its prefilters: a haversine to every
// city.
func classifyScan(g *Gazetteer, p LatLon) AreaType {
	result := Rural
	for _, c := range g.cities {
		d := DistanceKm(p, c.Pos)
		switch {
		case d <= c.urbanRadiusKm():
			return Urban
		case d <= c.suburbanRadiusKm():
			result = Suburban
		}
	}
	return result
}

// TestClassifyMatchesPlainScan checks the prefiltered Classify against
// the plain scan on points at and around every city's urban and
// suburban radius (due north and south included, where the latitude gap
// is the whole distance, and due east and west, where the longitude
// term is), across the corridor, and around the globe.
func TestClassifyMatchesPlainScan(t *testing.T) {
	g := DefaultGazetteer()
	rng := rand.New(rand.NewSource(9))
	var pts []LatLon
	for _, c := range g.cities {
		for _, r := range []float64{c.urbanRadiusKm(), c.suburbanRadiusKm()} {
			for _, f := range []float64{1 - 1e-9, 1, 1 + 1e-9, 0.9, 1.1} {
				for _, bearing := range []float64{0, 90, 180, 270, rng.Float64() * 360} {
					pts = append(pts, Destination(c.Pos, bearing, r*f))
				}
			}
		}
		for i := 0; i < 50; i++ {
			pts = append(pts, Destination(c.Pos, rng.Float64()*360, rng.Float64()*3*c.suburbanRadiusKm()))
		}
	}
	for i := 0; i < 2000; i++ {
		pts = append(pts, LatLon{Lat: 38 + rng.Float64()*12, Lon: -97 + rng.Float64()*17})
		pts = append(pts, LatLon{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180})
	}
	pts = append(pts, LatLon{90, 0}, LatLon{-90, 0}, LatLon{0, 180})
	counts := map[AreaType]int{}
	for _, p := range pts {
		got, want := g.Classify(p), classifyScan(g, p)
		if got != want {
			t.Fatalf("Classify(%v) = %v, plain scan %v", p, got, want)
		}
		counts[want]++
	}
	for _, a := range AreaTypes {
		if counts[a] == 0 {
			t.Fatalf("no %v point in the sample: %v", a, counts)
		}
	}
}

var benchArea AreaType

// BenchmarkClassify is the area classifier's layer probe: one point in
// the bounding box of the drive corridor against DefaultGazetteer.
func BenchmarkClassify(b *testing.B) {
	g := DefaultGazetteer()
	rng := rand.New(rand.NewSource(1))
	pts := make([]LatLon, 1024)
	for i := range pts {
		pts[i] = LatLon{Lat: 41.5 + 4.5*rng.Float64(), Lon: -94 + 11*rng.Float64()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchArea = g.Classify(pts[i%len(pts)])
	}
}
