package geo

import "math"

// classifyMarginKm is the slack Classify's latitude prefilter leaves
// for rounding: a city is skipped only when its latitude gap exceeds
// its suburban radius by more than this.
const classifyMarginKm = 1e-6

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
}

// NewGazetteer builds a gazetteer from the given cities. The slice is
// copied.
func NewGazetteer(cities []City) *Gazetteer {
	cp := make([]City, len(cities))
	copy(cp, cities)
	return &Gazetteer{cities: cp}
}

// Classify implements the paper's method: compute the distance from the
// data point to every listed city/town, take the smallest, and classify
// with predetermined thresholds. Points in an empty gazetteer are rural.
//
// The classification additionally considers the footprint of *every*
// city, not just the nearest one, so a point 3 km from a small town but
// 12 km from a metro core is still suburban with respect to the metro.
//
// A city whose latitude alone puts it beyond its suburban belt is
// skipped without a haversine: the great-circle distance is never less
// than EarthRadiusKm·|Δlat|.
func (g *Gazetteer) Classify(p LatLon) AreaType {
	result := Rural
	lat := deg2rad(p.Lat)
	for _, c := range g.cities {
		if EarthRadiusKm*math.Abs(deg2rad(c.Pos.Lat)-lat) > c.suburbanRadiusKm()+classifyMarginKm {
			continue
		}
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
