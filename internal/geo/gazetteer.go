package geo

import "math"

// Classify's prefilters leave slack for rounding: a city is skipped
// only when its latitude gap exceeds its suburban radius by more than
// classifyMarginKm, or when its longitude gap alone puts it more than
// classifyLonMarginKm beyond that radius.
const (
	classifyMarginKm    = 1e-6
	classifyLonMarginKm = 1
)

// AreaType is the paper's three-way geography classification (§5.1).
type AreaType int

const (
	Urban AreaType = iota
	Suburban
	Rural
)

// String returns the lower-case name of the area type.
func (a AreaType) String() string {
	switch a {
	case Urban:
		return "urban"
	case Suburban:
		return "suburban"
	case Rural:
		return "rural"
	default:
		return "unknown"
	}
}

// AreaTypes lists the three classifications in order.
var AreaTypes = []AreaType{Urban, Suburban, Rural}

// ParseArea converts an area-type name back to an AreaType.
func ParseArea(s string) (AreaType, bool) {
	for _, a := range AreaTypes {
		if a.String() == s {
			return a, true
		}
	}
	return 0, false
}

// City is a gazetteer entry. Population drives the urban-distance
// thresholds: a data point near a big city counts as urban out to a
// larger radius than one near a small town.
type City struct {
	Name       string
	State      string
	Pos        LatLon
	Population int
}

// urbanRadiusKm returns the distance within which points near the city
// classify as urban, scaled with population (a metro core has a larger
// urban footprint than a small town).
func (c City) urbanRadiusKm() float64 {
	switch {
	case c.Population >= 1_000_000:
		return 10
	case c.Population >= 250_000:
		return 7
	case c.Population >= 50_000:
		return 4
	default:
		return 2
	}
}

// suburbanRadiusKm returns the distance within which points near the city
// classify as suburban: the belt scales with the city's footprint (a
// metro's commuter belt is wide; a small town's is a few km).
func (c City) suburbanRadiusKm() float64 {
	return c.urbanRadiusKm()*2.5 + 10
}

// Gazetteer is the list of cities and towns passed through during the
// drive campaign; the paper compiles exactly such a list and classifies
// each data point by distance to the nearest entry.
type Gazetteer struct {
	cities []City
	bounds []cityBound // bounds[i] is cities[i]'s
}

// cityBound caches what Classify's longitude prefilter needs of a city.
type cityBound struct {
	cosLat float64 // cosine of the city's latitude, as DistanceKm computes it
	// maxLonTerm is sin²((r_sub + classifyLonMarginKm)/2R) for the
	// city's suburban radius r_sub: a point whose haversine longitude
	// term exceeds it lies beyond that radius.
	maxLonTerm float64
}

// NewGazetteer builds a gazetteer from the given cities. The slice is
// copied.
func NewGazetteer(cities []City) *Gazetteer {
	g := &Gazetteer{cities: make([]City, len(cities)), bounds: make([]cityBound, len(cities))}
	copy(g.cities, cities)
	for i, c := range g.cities {
		s := math.Sin((c.suburbanRadiusKm() + classifyLonMarginKm) / (2 * EarthRadiusKm))
		g.bounds[i] = cityBound{cosLat: math.Cos(deg2rad(c.Pos.Lat)), maxLonTerm: s * s}
	}
	return g
}

// Classify implements the paper's method: compute the distance from the
// data point to every listed city/town, take the smallest, and classify
// with predetermined thresholds. Points in an empty gazetteer are rural.
//
// The classification additionally considers the footprint of *every*
// city, not just the nearest one, so a point 3 km from a small town but
// 12 km from a metro core is still suburban with respect to the metro.
//
// Two prefilters skip a city without a full haversine. The great-circle
// distance is never less than EarthRadiusKm·|Δlat|, and the haversine
// hav(d/R) = sin²(Δlat/2) + cos(lat p)·cos(lat c)·sin²(Δlon/2) is never
// less than its longitude term, so a city whose latitude gap or
// longitude term alone puts it beyond its suburban belt cannot change
// the result. Distances that are computed equal DistanceKm(p, c.Pos).
func (g *Gazetteer) Classify(p LatLon) AreaType {
	result := Rural
	lat := deg2rad(p.Lat)
	cosP := math.Cos(lat)
	for i, c := range g.cities {
		if EarthRadiusKm*math.Abs(deg2rad(c.Pos.Lat)-lat) > c.suburbanRadiusKm()+classifyMarginKm {
			continue
		}
		b := &g.bounds[i]
		sLon := math.Sin((deg2rad(c.Pos.Lon) - deg2rad(p.Lon)) / 2)
		lonTerm := cosP * b.cosLat * sLon * sLon
		if lonTerm > b.maxLonTerm {
			continue
		}
		d := haversineKm(p, c.Pos, lonTerm)
		switch {
		case d <= c.urbanRadiusKm():
			return Urban
		case d <= c.suburbanRadiusKm():
			result = Suburban
		}
	}
	return result
}
