// Package mobility models the drive campaign: routes with per-segment
// speed limits, a vehicle that follows them with realistic speed
// variation, and GPS fixes sampled along the way.
package mobility

import (
	"fmt"
	"math/rand"
	"time"

	"satcell/internal/geo"
)

// MaxSpeedKmh is the campaign-wide driving speed cap (§3.3: "our driving
// speed is capped at 100 km/h due to speed limits").
const MaxSpeedKmh = 100

// Segment is one leg of a route with a speed limit.
type Segment struct {
	To            geo.LatLon // end point of the segment (start is the previous segment's end)
	SpeedLimitKmh float64
}

// Route is a named drive path.
type Route struct {
	Name  string
	State string // state where the route begins (informational)
	Start geo.LatLon
	Segs  []Segment

	line   *geo.Polyline
	limits []float64
}

// NewRoute assembles a route. At least one segment is required.
func NewRoute(name, state string, start geo.LatLon, segs []Segment) (*Route, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("mobility: route %q has no segments", name)
	}
	pts := make([]geo.LatLon, 0, len(segs)+1)
	pts = append(pts, start)
	limits := make([]float64, 0, len(segs))
	for _, s := range segs {
		pts = append(pts, s.To)
		lim := s.SpeedLimitKmh
		if lim <= 0 || lim > MaxSpeedKmh {
			lim = MaxSpeedKmh
		}
		limits = append(limits, lim)
	}
	line, err := geo.NewPolyline(pts)
	if err != nil {
		return nil, fmt.Errorf("mobility: route %q: %w", name, err)
	}
	return &Route{Name: name, State: state, Start: start, Segs: segs, line: line, limits: limits}, nil
}

// LengthKm returns the total route length.
func (r *Route) LengthKm() float64 { return r.line.LengthKm() }

// PosAt returns the position after travelling distKm along the route.
func (r *Route) PosAt(distKm float64) geo.LatLon { return r.line.At(distKm) }

// LimitAt returns the speed limit in effect distKm along the route.
func (r *Route) LimitAt(distKm float64) float64 {
	return r.limits[r.line.SegmentIndex(distKm)]
}

// Fix is one GPS/odometry sample of the vehicle state.
type Fix struct {
	At       time.Duration
	Pos      geo.LatLon
	DistKm   float64 // odometer distance along the route
	SpeedKmh float64
	Area     geo.AreaType
}

// Vehicle behaviour during a drive.
const (
	sampleEvery  = time.Second      // fix interval
	speedFactor  = 0.92             // fraction of the limit targeted
	speedJitter  = 0.06             // relative speed noise (std)
	accelKmhPerS = 4.0              // max speed change per second
	stopChance   = 0.25             // per-minute probability of a traffic stop in urban areas
	stopDuration = 35 * time.Second // mean stop duration
)

// Drive simulates the vehicle along route and returns one Fix per sample
// interval until the route is complete. Area classification uses gaz.
// The drive is deterministic given r's state.
func Drive(route *Route, gaz *geo.Gazetteer, r *rand.Rand) []Fix {
	dt := sampleEvery.Seconds()
	var (
		fixes    []Fix
		dist     float64
		speed    float64
		now      time.Duration
		stopLeft time.Duration
	)
	for dist < route.LengthKm() {
		pos := route.PosAt(dist)
		area := gaz.Classify(pos)

		// Traffic stops only happen where there is traffic control.
		if stopLeft <= 0 && area == geo.Urban {
			perSample := stopChance * dt / 60
			if r.Float64() < perSample {
				stopLeft = time.Duration((0.5 + r.Float64()) * float64(stopDuration))
			}
		}

		target := route.LimitAt(dist) * speedFactor
		if area == geo.Urban {
			target *= 0.85 // traffic slows urban driving
		}
		target *= 1 + speedJitter*r.NormFloat64()
		if stopLeft > 0 {
			target = 0
			stopLeft -= sampleEvery
		}
		if target < 0 {
			target = 0
		}
		if target > MaxSpeedKmh {
			target = MaxSpeedKmh
		}

		// Bounded acceleration toward the target speed.
		maxDelta := accelKmhPerS * dt
		switch {
		case target > speed+maxDelta:
			speed += maxDelta
		case target < speed-2*maxDelta: // braking is stronger than accelerating
			speed -= 2 * maxDelta
		default:
			speed = target
		}
		if speed < 0 {
			speed = 0
		}

		fixes = append(fixes, Fix{At: now, Pos: pos, DistKm: dist, SpeedKmh: speed, Area: area})
		dist += speed * dt / 3600
		now += sampleEvery
	}
	return fixes
}
