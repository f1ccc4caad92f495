// Package geo provides the geographic primitives for the synthetic drive
// world: lat/lon points, great-circle distance, polyline routes, a city
// gazetteer, and the paper's area-type classification (urban / suburban /
// rural by distance to the nearest city, §5.1 of the paper).
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusKm is the mean Earth radius used by Haversine.
const EarthRadiusKm = 6371.0

// LatLon is a WGS84-style coordinate in degrees.
type LatLon struct {
	Lat float64
	Lon float64
}

func (p LatLon) String() string { return fmt.Sprintf("(%.5f, %.5f)", p.Lat, p.Lon) }

func deg2rad(d float64) float64 { return d * math.Pi / 180 }
func rad2deg(r float64) float64 { return r * 180 / math.Pi }

// DistanceKm returns the great-circle (haversine) distance between a and b
// in kilometres.
func DistanceKm(a, b LatLon) float64 { return NewAnchor(a).DistanceKm(b) }

// haversineKm returns the distance between a and b given lonTerm, the
// longitude term cos(lat a)·cos(lat b)·sin²(Δlon/2) of their haversine.
// Every distance in the package goes through it, so a distance is the
// same to the bit whichever caller computes it.
func haversineKm(a, b LatLon, lonTerm float64) float64 {
	sLat := math.Sin((deg2rad(b.Lat) - deg2rad(a.Lat)) / 2)
	h := sLat*sLat + lonTerm
	return 2 * EarthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// Anchor is a fixed point that distances are measured from again and
// again; it caches the cosine of its latitude. a.DistanceKm(q) equals
// DistanceKm(p, q) bit for bit, where a = NewAnchor(p).
type Anchor struct {
	pos    LatLon
	cosLat float64
}

// NewAnchor returns the anchor at p.
func NewAnchor(p LatLon) Anchor { return Anchor{pos: p, cosLat: math.Cos(deg2rad(p.Lat))} }

// DistanceKm returns the great-circle distance from the anchor to q in
// kilometres.
func (a Anchor) DistanceKm(q LatLon) float64 {
	sLon := math.Sin((deg2rad(q.Lon) - deg2rad(a.pos.Lon)) / 2)
	return haversineKm(a.pos, q, a.cosLat*math.Cos(deg2rad(q.Lat))*sLon*sLon)
}

// Destination returns the point reached by travelling distKm kilometres
// from p along the given initial bearing (degrees clockwise from north).
func Destination(p LatLon, bearingDeg, distKm float64) LatLon {
	delta := distKm / EarthRadiusKm
	theta := deg2rad(bearingDeg)
	phi1 := deg2rad(p.Lat)
	lam1 := deg2rad(p.Lon)
	phi2 := math.Asin(math.Sin(phi1)*math.Cos(delta) +
		math.Cos(phi1)*math.Sin(delta)*math.Cos(theta))
	lam2 := lam1 + math.Atan2(
		math.Sin(theta)*math.Sin(delta)*math.Cos(phi1),
		math.Cos(delta)-math.Sin(phi1)*math.Sin(phi2))
	// Normalize longitude to [-180, 180).
	lon := math.Mod(rad2deg(lam2)+540, 360) - 180
	return LatLon{Lat: rad2deg(phi2), Lon: lon}
}

// Polyline is a sequence of points with precomputed cumulative distances,
// supporting interpolation by travelled distance.
type Polyline struct {
	pts []LatLon
	cum []float64 // cumulative distance in km, cum[0] == 0
}

// NewPolyline builds a polyline from at least two points.
func NewPolyline(pts []LatLon) (*Polyline, error) {
	if len(pts) < 2 {
		return nil, fmt.Errorf("geo: polyline needs at least 2 points, got %d", len(pts))
	}
	cp := make([]LatLon, len(pts))
	copy(cp, pts)
	cum := make([]float64, len(pts))
	for i := 1; i < len(pts); i++ {
		cum[i] = cum[i-1] + DistanceKm(pts[i-1], pts[i])
	}
	return &Polyline{pts: cp, cum: cum}, nil
}

// LengthKm returns the total polyline length.
func (pl *Polyline) LengthKm() float64 { return pl.cum[len(pl.cum)-1] }

// At returns the interpolated position after travelling distKm along the
// polyline from its start. Distances outside [0, Length] are clamped.
func (pl *Polyline) At(distKm float64) LatLon {
	if distKm <= 0 {
		return pl.pts[0]
	}
	last := len(pl.cum) - 1
	if distKm >= pl.cum[last] {
		return pl.pts[last]
	}
	// Binary search for the segment containing distKm.
	lo, hi := 0, last
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if pl.cum[mid] <= distKm {
			lo = mid
		} else {
			hi = mid
		}
	}
	segLen := pl.cum[hi] - pl.cum[lo]
	if segLen <= 0 {
		return pl.pts[lo]
	}
	frac := (distKm - pl.cum[lo]) / segLen
	a, b := pl.pts[lo], pl.pts[hi]
	// Linear interpolation in lat/lon is fine at drive-segment scales.
	return LatLon{
		Lat: a.Lat + frac*(b.Lat-a.Lat),
		Lon: a.Lon + frac*(b.Lon-a.Lon),
	}
}

// SegmentIndex returns the index of the segment containing distKm
// (0-based, clamped to the valid range).
func (pl *Polyline) SegmentIndex(distKm float64) int {
	last := len(pl.cum) - 1
	if distKm <= 0 {
		return 0
	}
	if distKm >= pl.cum[last] {
		return last - 1
	}
	lo, hi := 0, last
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if pl.cum[mid] <= distKm {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
