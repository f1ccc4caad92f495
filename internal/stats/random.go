package stats

import "math/rand"

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// GilbertElliott is a two-state Markov packet-loss process. In the Good
// state packets are lost with probability LossGood; in the Bad state with
// probability LossBad. Transitions happen per step (typically per packet
// or per sample tick).
type GilbertElliott struct {
	PGoodToBad float64 // transition probability Good -> Bad per step
	PBadToGood float64 // transition probability Bad -> Good per step
	LossGood   float64
	LossBad    float64

	bad bool
}

// Step advances the chain one step and reports whether this step is a loss.
func (g *GilbertElliott) Step(r *rand.Rand) bool {
	if g.bad {
		if r.Float64() < g.PBadToGood {
			g.bad = false
		}
	} else {
		if r.Float64() < g.PGoodToBad {
			g.bad = true
		}
	}
	p := g.LossGood
	if g.bad {
		p = g.LossBad
	}
	return r.Float64() < p
}

// Bad reports whether the chain is currently in the bad state.
func (g *GilbertElliott) Bad() bool { return g.bad }

// OrnsteinUhlenbeck is a mean-reverting random walk used to give channel
// capacity realistic short-term temporal correlation.
type OrnsteinUhlenbeck struct {
	Mean  float64 // long-run mean
	Theta float64 // mean-reversion rate per step
	Sigma float64 // per-step noise scale

	x           float64
	initialized bool
}

// Step advances the process one step and returns the new value.
func (o *OrnsteinUhlenbeck) Step(r *rand.Rand) float64 {
	if !o.initialized {
		o.x = o.Mean
		o.initialized = true
	}
	o.x += o.Theta*(o.Mean-o.x) + o.Sigma*r.NormFloat64()
	return o.x
}

// Reset re-centres the process on a new mean, keeping the current
// deviation proportionally (used when the channel's base capacity shifts,
// e.g. at a satellite handover).
func (o *OrnsteinUhlenbeck) Reset(mean float64) {
	if o.initialized && o.Mean > 0 {
		o.x = mean * (o.x / o.Mean)
	} else {
		o.x = mean
		o.initialized = true
	}
	o.Mean = mean
}
