package leo

import (
	"math/rand"

	"satcell/internal/geo"
	"satcell/internal/stats"
)

// skySectors is the azimuthal resolution of the skyline mask (15° each).
const skySectors = 24

// Skyline is the local horizon profile around the vehicle: for each
// azimuth sector, the elevation angle below which satellites are hidden
// by buildings, trees or terrain. Starlink requires line of sight, so a
// serving satellite below the skyline is obstructed (§2 of the paper).
type Skyline struct {
	elevDeg [skySectors]float64
}

// ObstructionParams describe the statistical skyline of one area type.
type ObstructionParams struct {
	MeanElevDeg  float64 // mean obstruction elevation per sector
	StdElevDeg   float64
	OpenFraction float64 // fraction of sectors that are fully open (parks, road gaps)
	SceneKm      float64 // distance the vehicle travels before the scene changes
}

// ObstructionByArea returns the obstruction statistics for an area type.
// Urban canyons block large parts of the sky; suburban towns have "much
// fewer high buildings, leading to similar obstruction conditions to
// rural areas" (§5.1), so their profiles are close.
func ObstructionByArea(a geo.AreaType) ObstructionParams {
	switch a {
	case geo.Urban:
		return ObstructionParams{MeanElevDeg: 38, StdElevDeg: 16, OpenFraction: 0.18, SceneKm: 0.25}
	case geo.Suburban:
		return ObstructionParams{MeanElevDeg: 16, StdElevDeg: 8, OpenFraction: 0.42, SceneKm: 1.0}
	default: // Rural
		return ObstructionParams{MeanElevDeg: 12, StdElevDeg: 6, OpenFraction: 0.55, SceneKm: 3.0}
	}
}

// SampleSkyline draws a random skyline from the given parameters.
func SampleSkyline(r *rand.Rand, p ObstructionParams) Skyline {
	var s Skyline
	for i := 0; i < skySectors; i++ {
		if r.Float64() < p.OpenFraction {
			s.elevDeg[i] = 0
			continue
		}
		s.elevDeg[i] = stats.Clamp(p.MeanElevDeg+p.StdElevDeg*r.NormFloat64(), 0, 80)
	}
	return s
}

// Obstructed reports whether a satellite at the given azimuth/elevation
// is hidden by the skyline.
func (s Skyline) Obstructed(azimuthDeg, elevationDeg float64) bool {
	az := azimuthDeg
	for az < 0 {
		az += 360
	}
	for az >= 360 {
		az -= 360
	}
	i := int(az / (360.0 / skySectors))
	if i >= skySectors {
		i = skySectors - 1
	}
	return elevationDeg < s.elevDeg[i]
}

// scene tracks the skyline as the vehicle moves: it re-samples the
// skyline after the vehicle travels the scene length of the current
// area type, or immediately when the area type changes.
type scene struct {
	skyline Skyline
	area    geo.AreaType
	havePos bool
	anchor  geo.Anchor // where the skyline was last sampled
}

func (sc *scene) update(r *rand.Rand, pos geo.LatLon, area geo.AreaType) Skyline {
	p := ObstructionByArea(area)
	if !sc.havePos || area != sc.area || sc.anchor.DistanceKm(pos) >= p.SceneKm {
		sc.skyline = SampleSkyline(r, p)
		sc.area = area
		sc.anchor = geo.NewAnchor(pos)
		sc.havePos = true
	}
	return sc.skyline
}
