package leo

import "satcell/internal/channel"

// Plan describes a Starlink service plan plus the capabilities of its
// dish hardware. The paper compares Roam (RM: portable, cheaper, not
// designed for in-motion tracking) with Mobility (MOB: in-motion dish
// with a wider field of view and the highest network priority).
type Plan struct {
	Network channel.NetworkID

	// MinElevationDeg is the lowest satellite elevation the dish can
	// track while the vehicle is moving. The Mobility dish has a wide
	// field of view; Roam's effective cone is narrower under motion
	// because it cannot adjust its orientation promptly (§4.1).
	MinElevationDeg float64

	// PriorityFactor scales the capacity share granted by the Starlink
	// scheduler; Mobility is advertised as receiving the highest
	// priority during congestion.
	PriorityFactor float64

	// TrackingLossProb is the per-second probability that the dish
	// momentarily loses lock on its serving satellite while in motion.
	TrackingLossProb float64

	// ReacquireSeconds is how long the dish takes to re-target after
	// its serving satellite becomes obstructed.
	ReacquireSeconds int

	// PeakDownMbps / PeakUpMbps are the cell-peak air-interface rates.
	// Starlink uses FDD with a much fatter downlink channel (§4.1's
	// ~10x uplink/downlink asymmetry).
	PeakDownMbps float64
	PeakUpMbps   float64

	// ClutterMul and ClutterAdd apply a dish-specific penalty to the
	// area clutter probability: p' = clamp(p*ClutterMul + ClutterAdd)
	// into [0, 0.9]. A narrow-cone dish that re-acquires slowly (Roam)
	// sets a penalty >1; ClutterMul of 0 means 1 (no penalty), so the
	// zero value is neutral. A ClutterAdd of -1 clamps every area's
	// clutter to 0: the obstruction ablation sets it to isolate why
	// Starlink loses in urban areas.
	ClutterMul float64
	ClutterAdd float64
}

// RoamPlan returns the Roam (RM) plan parameters.
func RoamPlan() Plan {
	return Plan{
		Network:          channel.StarlinkRoam,
		MinElevationDeg:  40,
		PriorityFactor:   0.58,
		TrackingLossProb: 0.030,
		ReacquireSeconds: 5,
		PeakDownMbps:     400,
		PeakUpMbps:       40,
		ClutterMul:       1.2,
		ClutterAdd:       0.02,
	}
}

// MobilityPlan returns the Mobility (MOB) plan parameters.
func MobilityPlan() Plan {
	return Plan{
		Network:          channel.StarlinkMobility,
		MinElevationDeg:  25,
		PriorityFactor:   1.0,
		TrackingLossProb: 0.004,
		ReacquireSeconds: 2,
		PeakDownMbps:     400,
		PeakUpMbps:       40,
	}
}
