// Package cell models the cellular side of the study: carrier-specific
// base-station deployments (dense downtown grids thinning out to sparse
// rural macro sites), a log-distance path-loss / SINR / rate link model
// with LTE and low-band 5G technology caps, handover with hysteresis,
// and a channel sampler implementing channel.Model.
package cell

import (
	"math"
	"math/rand"
	"time"

	"satcell/internal/channel"
	"satcell/internal/geo"
)

// Tech is the serving radio technology.
type Tech int

const (
	LTE     Tech = iota
	NR5GLow      // low-band 5G: broad coverage, modest speed (§1: "either low-band 5G or 4G LTE")
)

// String returns the display name of the technology.
func (t Tech) String() string {
	if t == NR5GLow {
		return "5G-low"
	}
	return "LTE"
}

// AreaParams hold the deployment characteristics of one carrier in one
// area type.
type AreaParams struct {
	SiteDensityPerKm2 float64 // base-station density of a Poisson deployment
	Prob5G            float64 // probability a site serves low-band 5G
	MaxRangeKm        float64 // beyond this distance there is no service
}

// Carrier describes one cellular operator.
type Carrier struct {
	Network channel.NetworkID

	// Deployment per area type, indexed by geo.AreaType.
	Deployment [3]AreaParams

	// EffectiveBWMHz is the usable aggregated bandwidth per technology.
	BWMHz [2]float64

	// TxRefDBm is the received power at the 100 m reference distance.
	TxRefDBm float64

	// CoreRTT is the base round-trip time through the carrier's core
	// network to a nearby server.
	CoreRTT time.Duration

	// UplinkShare is the uplink/downlink capacity ratio.
	UplinkShare float64
}

// Carriers returns the three measured carriers with their synthetic
// deployment parameters. Relative standings follow the paper: Verizon
// and T-Mobile run denser deployments with lower core latency along the
// campaign corridor, while AT&T trails in both coverage and latency
// ("likely due to its relatively low coverage along our trip", §4.1).
func Carriers() []Carrier {
	return []Carrier{
		{
			Network: channel.ATT,
			Deployment: [3]AreaParams{
				geo.Urban:    {SiteDensityPerKm2: 2.2, Prob5G: 0.45, MaxRangeKm: 2.0},
				geo.Suburban: {SiteDensityPerKm2: 0.35, Prob5G: 0.30, MaxRangeKm: 3.5},
				geo.Rural:    {SiteDensityPerKm2: 0.045, Prob5G: 0.20, MaxRangeKm: 4.5},
			},
			BWMHz:       [2]float64{LTE: 20, NR5GLow: 22},
			TxRefDBm:    -70,
			CoreRTT:     68 * time.Millisecond,
			UplinkShare: 0.25,
		},
		{
			Network: channel.TMobile,
			Deployment: [3]AreaParams{
				geo.Urban:    {SiteDensityPerKm2: 3.8, Prob5G: 0.80, MaxRangeKm: 2.0},
				geo.Suburban: {SiteDensityPerKm2: 0.70, Prob5G: 0.65, MaxRangeKm: 3.5},
				geo.Rural:    {SiteDensityPerKm2: 0.085, Prob5G: 0.50, MaxRangeKm: 5.0},
			},
			BWMHz:       [2]float64{LTE: 24, NR5GLow: 30},
			TxRefDBm:    -69,
			CoreRTT:     42 * time.Millisecond,
			UplinkShare: 0.25,
		},
		{
			Network: channel.Verizon,
			Deployment: [3]AreaParams{
				geo.Urban:    {SiteDensityPerKm2: 4.0, Prob5G: 0.60, MaxRangeKm: 2.0},
				geo.Suburban: {SiteDensityPerKm2: 0.75, Prob5G: 0.50, MaxRangeKm: 3.5},
				geo.Rural:    {SiteDensityPerKm2: 0.090, Prob5G: 0.35, MaxRangeKm: 5.0},
			},
			BWMHz:       [2]float64{LTE: 26, NR5GLow: 28},
			TxRefDBm:    -68,
			CoreRTT:     40 * time.Millisecond,
			UplinkShare: 0.25,
		},
	}
}

// rayleighNearest draws the distance to the nearest point of a Poisson
// point process with the given density (Rayleigh distributed).
func rayleighNearest(r *rand.Rand, densityPerKm2 float64) float64 {
	if densityPerKm2 <= 0 {
		return math.Inf(1)
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return math.Sqrt(-math.Log(u) / (math.Pi * densityPerKm2))
}
