// Package leo models the LEO satellite side of the study: a
// Starlink-like Walker constellation with real circular-orbit geometry,
// a user-terminal model for the two plans the paper measures (Roam and
// Mobility), an area-dependent sky-obstruction process, and a channel
// sampler implementing channel.Model.
package leo

import (
	"fmt"
	"math"
	"time"

	"satcell/internal/geo"
)

// Physical constants.
const (
	earthRadiusKm   = 6371.0
	earthMuKm3S2    = 398600.4418  // gravitational parameter, km^3/s^2
	earthRotRadPerS = 7.2921159e-5 // sidereal rotation rate
	// SpeedOfLightKmS is the propagation speed used by Eq. (1) of the
	// paper (vacuum speed of light, km/s).
	SpeedOfLightKmS = 299792.0
)

// OneWayPropagation implements Eq. (1): the one-way satellite-to-ground
// propagation delay for a satellite directly overhead at the given
// altitude. For Starlink's 550 km shell this is ~1.835 ms.
func OneWayPropagation(altitudeKm float64) time.Duration {
	seconds := altitudeKm / SpeedOfLightKmS
	return time.Duration(seconds * float64(time.Second))
}

// SlantRTT returns the round-trip propagation delay over a bent-pipe hop
// (user -> satellite -> user) with the given slant range.
func SlantRTT(slantKm float64) time.Duration {
	seconds := 2 * slantKm / SpeedOfLightKmS
	return time.Duration(seconds * float64(time.Second))
}

// Shell describes one Walker-delta constellation shell.
type Shell struct {
	AltitudeKm     float64
	InclinationDeg float64
	Planes         int
	SatsPerPlane   int
	PhasingF       int // Walker phasing factor (inter-plane phase offset)
}

// StarlinkShell returns the first (and largest) Starlink shell: 72 planes
// of 22 satellites at 550 km, 53° inclination.
func StarlinkShell() Shell {
	return Shell{AltitudeKm: 550, InclinationDeg: 53, Planes: 72, SatsPerPlane: 22, PhasingF: 39}
}

// PeriodSeconds returns the orbital period of the shell.
func (s Shell) PeriodSeconds() float64 {
	a := earthRadiusKm + s.AltitudeKm
	return 2 * math.Pi * math.Sqrt(a*a*a/earthMuKm3S2)
}

type satParams struct {
	phase      float64 // mean anomaly at t=0, radians
	cosO, sinO float64 // cos/sin of the right ascension of ascending node
}

// Constellation propagates a shell of satellites on circular orbits and
// answers visibility queries from ground positions. Satellites are
// stored plane by plane: plane p holds indices [p*SatsPerPlane,
// (p+1)*SatsPerPlane).
type Constellation struct {
	shell      Shell
	sats       []satParams
	names      []string
	period     float64
	cosI, sinI float64 // cos/sin of the shell's inclination
	radius     float64
}

// NewConstellation builds the satellite set for a shell.
func NewConstellation(shell Shell) *Constellation {
	n := shell.Planes * shell.SatsPerPlane
	c := &Constellation{
		shell:  shell,
		sats:   make([]satParams, 0, n),
		names:  make([]string, 0, n),
		period: shell.PeriodSeconds(),
		radius: earthRadiusKm + shell.AltitudeKm,
	}
	incRad := shell.InclinationDeg * math.Pi / 180
	c.cosI, c.sinI = math.Cos(incRad), math.Sin(incRad)
	for p := 0; p < shell.Planes; p++ {
		raan := 2 * math.Pi * float64(p) / float64(shell.Planes)
		cosO, sinO := math.Cos(raan), math.Sin(raan)
		interPlane := 2 * math.Pi * float64(shell.PhasingF) * float64(p) /
			float64(shell.Planes*shell.SatsPerPlane)
		for s := 0; s < shell.SatsPerPlane; s++ {
			phase := 2*math.Pi*float64(s)/float64(shell.SatsPerPlane) + interPlane
			c.sats = append(c.sats, satParams{phase: phase, cosO: cosO, sinO: sinO})
			c.names = append(c.names, fmt.Sprintf("SL-%02d-%02d", p, s))
		}
	}
	return c
}

type vec3 struct{ x, y, z float64 }

func (v vec3) sub(o vec3) vec3      { return vec3{v.x - o.x, v.y - o.y, v.z - o.z} }
func (v vec3) dot(o vec3) float64   { return v.x*o.x + v.y*o.y + v.z*o.z }
func (v vec3) norm() float64        { return math.Sqrt(v.dot(v)) }
func (v vec3) scale(k float64) vec3 { return vec3{v.x * k, v.y * k, v.z * k} }

// satECI returns the ECI position of satellite i at time t (seconds).
// The RAAN and inclination terms come from NewConstellation's cache;
// the expression keeps its operand order, so positions are bit-identical
// to computing every sin/cos here.
func (c *Constellation) satECI(i int, t float64) vec3 {
	sp := c.sats[i]
	theta := sp.phase + 2*math.Pi*t/c.period // argument of latitude
	cosT, sinT := math.Cos(theta), math.Sin(theta)
	cosO, sinO := sp.cosO, sp.sinO
	cosI, sinI := c.cosI, c.sinI
	return vec3{
		x: c.radius * (cosO*cosT - sinO*sinT*cosI),
		y: c.radius * (sinO*cosT + cosO*sinT*cosI),
		z: c.radius * (sinT * sinI),
	}
}

// userECI returns the ECI position of a ground point at time t, applying
// Earth rotation.
func userECI(p geo.LatLon, t float64) vec3 {
	lat := p.Lat * math.Pi / 180
	lon := p.Lon*math.Pi/180 + earthRotRadPerS*t
	cl := math.Cos(lat)
	return vec3{
		x: earthRadiusKm * cl * math.Cos(lon),
		y: earthRadiusKm * cl * math.Sin(lon),
		z: earthRadiusKm * math.Sin(lat),
	}
}

// SatView describes one visible satellite from a ground position.
type SatView struct {
	Index        int
	ID           string
	ElevationDeg float64
	AzimuthDeg   float64
	SlantRangeKm float64
}

// Visibility queries cull in two steps, each with slack for rounding: a
// plane is skipped only when even its best-placed satellite would miss
// the dot-product filter by more than planeCullMargin, and in a kept
// plane a satellite is skipped only when its argument of latitude lies
// more than arcMargin radians outside the arc that can pass (planeArc).
const (
	planeCullMargin = 1e-9
	arcMargin       = 1e-6
)

// visQuery holds the per-call state of a visibility query: the user's
// ECI position and unit vector at time t, the elevation mask, the
// central-angle pre-filter derived from it, and the argument of
// latitude every satellite has gained since t = 0.
type visQuery struct {
	t         float64
	u, uHat   vec3
	minEl     float64
	cosPsiMax float64
	orbit     float64
}

func (c *Constellation) newVisQuery(user geo.LatLon, at time.Duration, minElevDeg float64) visQuery {
	t := at.Seconds()
	u := userECI(user, t)
	// Pre-filter: a satellite above minElev must be within a central
	// angle bound of the user; use the dot product of unit position
	// vectors against a conservative cosine threshold.
	minEl := minElevDeg * math.Pi / 180
	// Central angle for elevation el: psi = acos(Re/r * cos(el)) - el.
	psiMax := math.Acos(earthRadiusKm/c.radius*math.Cos(minEl)) - minEl
	return visQuery{
		t:         t,
		u:         u,
		uHat:      u.scale(1 / u.norm()),
		minEl:     minEl,
		cosPsiMax: math.Cos(psiMax),
		orbit:     2 * math.Pi * t / c.period,
	}
}

// planeArc returns the slots of the plane whose first satellite is lo
// that can pass q's dot-product filter: the n slots first, first+1, ...
// taken modulo SatsPerPlane, with n = 0 when none can.
//
// The plane's satellites all lie on the great circle spanned by
// P = (cosΩ, sinΩ, 0) and Q = (−sinΩ·cosi, cosΩ·cosi, sini), so the one
// at argument of latitude θ has sHat·uHat = cosθ(P·uHat) + sinθ(Q·uHat)
// = A·cos(θ − φ), with A = sqrt((P·uHat)² + (Q·uHat)²) and
// φ = atan2(Q·uHat, P·uHat). It passes only if A ≥ cosψ, and then only
// if θ lies within acos(cosψ/A) of φ. The satellites are evenly spaced
// in θ, so that arc is a run of slots.
func (c *Constellation) planeArc(lo int, q *visQuery) (first, n int) {
	sp := &c.sats[lo]
	pu := sp.cosO*q.uHat.x + sp.sinO*q.uHat.y
	qu := -sp.sinO*c.cosI*q.uHat.x + sp.cosO*c.cosI*q.uHat.y + c.sinI*q.uHat.z
	a := math.Sqrt(pu*pu + qu*qu)
	if !(a >= q.cosPsiMax-planeCullMargin) {
		return 0, 0
	}
	per := c.shell.SatsPerPlane
	half := math.Acos(math.Max(-1, math.Min(1, q.cosPsiMax/a))) + arcMargin
	if !(half < math.Pi) {
		return 0, per // the whole circle, or a degenerate A = cosψ = 0
	}
	step := 2 * math.Pi / float64(per)
	// x is the fractional slot of the satellite that would sit at φ.
	x := (math.Atan2(qu, pu) - (sp.phase + q.orbit)) / step
	from, to := math.Ceil(x-half/step), math.Floor(x+half/step)
	if to < from {
		return 0, 0
	}
	// half < π keeps the run shorter than the plane: n <= per.
	first = int(math.Mod(from, float64(per)))
	if first < 0 {
		first += per
	}
	return first, int(to-from) + 1
}

// visibleView returns satellite i's view for q, and whether it clears the
// elevation mask.
func (c *Constellation) visibleView(i int, q *visQuery) (SatView, bool) {
	s := c.satECI(i, q.t)
	sHat := s.scale(1 / c.radius)
	if sHat.dot(q.uHat) < q.cosPsiMax {
		return SatView{}, false
	}
	d := s.sub(q.u)
	dist := d.norm()
	sinEl := d.dot(q.uHat) / dist
	el := math.Asin(math.Max(-1, math.Min(1, sinEl)))
	if el < q.minEl {
		return SatView{}, false
	}
	return SatView{
		Index:        i,
		ID:           c.names[i],
		ElevationDeg: el * 180 / math.Pi,
		AzimuthDeg:   azimuth(q.uHat, q.u, d),
		SlantRangeKm: dist,
	}, true
}

// scan calls fn with the view of every satellite above q's elevation
// mask, in index order. In each plane it tries only the slots planeArc
// returns; visibleView still makes the exact test, so fn sees what a
// scan of every satellite would give it.
func (c *Constellation) scan(q *visQuery, fn func(SatView)) {
	per := c.shell.SatsPerPlane
	for lo := 0; lo < len(c.sats); lo += per {
		first, n := c.planeArc(lo, q)
		// Slots of the arc past the plane's last one wrap round to its
		// first ones, which come first in index order.
		for s := 0; s < first+n-per; s++ {
			if v, ok := c.visibleView(lo+s, q); ok {
				fn(v)
			}
		}
		for s := first; s < first+n && s < per; s++ {
			if v, ok := c.visibleView(lo+s, q); ok {
				fn(v)
			}
		}
	}
}

// azimuth computes the compass azimuth of the direction vector d as seen
// from the user position u (both in ECI at the same instant).
func azimuth(uHat, u, d vec3) float64 {
	// Local East-North-Up basis at the user point. Up is uHat; East is
	// the horizontal direction of increasing longitude.
	east := vec3{-u.y, u.x, 0}
	en := east.norm()
	if en == 0 {
		return 0 // at the poles azimuth is degenerate
	}
	east = east.scale(1 / en)
	// North = Up x East.
	north := vec3{
		uHat.y*east.z - uHat.z*east.y,
		uHat.z*east.x - uHat.x*east.z,
		uHat.x*east.y - uHat.y*east.x,
	}
	e := d.dot(east)
	n := d.dot(north)
	az := math.Atan2(e, n) * 180 / math.Pi
	if az < 0 {
		az += 360
	}
	return az
}

// View recomputes the current geometry of satellite i from user at time
// offset at, regardless of elevation.
func (c *Constellation) View(i int, user geo.LatLon, at time.Duration) SatView {
	t := at.Seconds()
	u := userECI(user, t)
	uHat := u.scale(1 / u.norm())
	s := c.satECI(i, t)
	d := s.sub(u)
	dist := d.norm()
	sinEl := d.dot(uHat) / dist
	el := math.Asin(math.Max(-1, math.Min(1, sinEl)))
	return SatView{
		Index:        i,
		ID:           c.names[i],
		ElevationDeg: el * 180 / math.Pi,
		AzimuthDeg:   azimuth(uHat, u, d),
		SlantRangeKm: dist,
	}
}

// Best returns the highest-elevation satellite above minElevDeg as seen
// from user at time offset at, preferring any that passes the keep
// predicate (e.g. "not obstructed"); of equal elevations the lowest index
// wins. If no visible satellite passes keep, ok is false and the highest
// obstructed view is returned for diagnostics.
func (c *Constellation) Best(user geo.LatLon, at time.Duration, minElevDeg float64, keep func(SatView) bool) (best SatView, ok bool) {
	q := c.newVisQuery(user, at, minElevDeg)
	bestAny := SatView{Index: -1, ElevationDeg: -90}
	bestKept := SatView{Index: -1, ElevationDeg: -90}
	c.scan(&q, func(v SatView) {
		if v.ElevationDeg > bestAny.ElevationDeg {
			bestAny = v
		}
		if (keep == nil || keep(v)) && v.ElevationDeg > bestKept.ElevationDeg {
			bestKept = v
		}
	})
	if bestKept.Index >= 0 {
		return bestKept, true
	}
	return bestAny, false
}
