package leo

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"satcell/internal/channel"
	"satcell/internal/geo"
	"satcell/internal/stats"
)

// EpochSeconds is the Starlink global-scheduler reallocation interval:
// the serving satellite assignment is revisited every 15 seconds.
const EpochSeconds = 15

// Model is the Starlink channel sampler. It implements channel.Model by
// combining the constellation geometry, the dish plan, the area-driven
// obstruction process, the 15 s scheduling epochs and stochastic
// capacity/loss processes. The epoch shares come from a shareTable,
// which models built by one ModelBuilder share; everything else is the
// model's own.
type Model struct {
	plan Plan
	cons *Constellation
	seed int64

	rng       *rand.Rand
	sc        scene
	fading    stats.OrnsteinUhlenbeck
	lossDown  stats.GilbertElliott
	lossUp    stats.GilbertElliott
	serving   int // satellite index, -1 when none
	lastEpoch int64
	obstSecs  int // consecutive seconds the serving satellite has been obstructed
	handover  bool

	shares     *shareTable
	shareEpoch int64   // highest epoch epochShare has reached, -1 before any
	share      float64 // the share of shareEpoch
}

func newModel(plan Plan, cons *Constellation, seed int64, shares *shareTable) *Model {
	m := &Model{plan: plan, cons: cons, seed: seed, shares: shares}
	m.Reset()
	return m
}

// ModelBuilder returns a channel.Builder producing independent Model
// instances for the plan. Every instance starts its random stream from
// the same seed, so building a fresh model per drive is equivalent to
// calling Reset() between drives on a shared one — which is what makes
// concurrent drive simulation bit-identical to the serial campaign.
// The constellation is read-only and safely shared across instances.
// The instances also share one epoch-share table: with one seed they
// all replay the same share sequence, so the builder computes each
// epoch's share once, and the table grows under its own lock.
func ModelBuilder(plan Plan, cons *Constellation, seed int64) channel.Builder {
	shares := newShareTable(seed)
	return func() channel.Model { return newModel(plan, cons, seed, shares) }
}

// Network implements channel.Model.
func (m *Model) Network() channel.NetworkID { return m.plan.Network }

// Reset implements channel.Model.
func (m *Model) Reset() {
	m.rng = rand.New(rand.NewSource(m.seed))
	m.sc = scene{}
	m.fading = stats.OrnsteinUhlenbeck{Mean: 1, Theta: 0.3, Sigma: 0.07}
	// Starlink loss is bursty: clean-sky baseline loss is modest, but
	// bad seconds (beam contention, micro-obstructions) and handovers
	// spike it. TCP sees this as loss *episodes* every O(10 s), which
	// is what produces the paper's ~4-5x TCP-vs-UDP throughput gap.
	m.lossDown = stats.GilbertElliott{
		PGoodToBad: 0.012, PBadToGood: 0.5,
		LossGood: 0.000015, LossBad: 0.02,
	}
	m.lossUp = stats.GilbertElliott{
		PGoodToBad: 0.014, PBadToGood: 0.5,
		LossGood: 0.000025, LossBad: 0.022,
	}
	m.serving = -1
	m.lastEpoch = -1
	m.obstSecs = 0
	m.handover = false
	m.shareEpoch = -1
	m.share = math.Exp(shareLogMu)
}

// Starlink per-epoch capacity share: lognormal marginal (median 0.53,
// mean 0.60) evolving as an AR(1) process across the 15 s scheduler
// epochs — real Starlink throughput is strongly correlated between
// consecutive reallocations, which is what lets TCP track it.
const (
	shareLogMu    = -0.6539 // ln(0.52)
	shareLogSigma = 0.498
	shareRho      = 0.85
)

// epochShare advances the AR(1) share process to the given epoch. The
// process never steps back: an earlier epoch gets the latest share.
func (m *Model) epochShare(epoch int64) float64 {
	if epoch > m.shareEpoch {
		m.shareEpoch = epoch
		m.share = m.shares.at(epoch)
	}
	return m.share
}

// shareTable is the AR(1) share sequence of one seed: shares[e] is the
// share of epoch e. The sequence depends on the seed alone, so models
// with one seed can share a table. Safe for concurrent use.
type shareTable struct {
	seed int64

	mu       sync.Mutex
	shares   []float64
	logShare float64 // the log share of the last epoch in shares
}

func newShareTable(seed int64) *shareTable {
	return &shareTable{seed: seed, logShare: shareLogMu}
}

// at returns the share of epoch (>= 0), extending the table through it.
func (st *shareTable) at(epoch int64) float64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	for int64(len(st.shares)) <= epoch {
		eps := epochRng(st.seed, int64(len(st.shares))).NormFloat64()
		st.logShare = shareRho*st.logShare + (1-shareRho)*shareLogMu +
			shareLogSigma*math.Sqrt(1-shareRho*shareRho)*eps
		st.shares = append(st.shares, math.Exp(st.logShare))
	}
	return st.shares[epoch]
}

// elevationFactor maps satellite elevation to relative link quality: low
// elevations suffer longer slant paths and atmospheric attenuation.
func elevationFactor(elevDeg float64) float64 {
	s := math.Sin(elevDeg * math.Pi / 180)
	return 0.55 + 0.45*s
}

// Sample implements channel.Model.
func (m *Model) Sample(env channel.Env) channel.Sample {
	sky := m.sc.update(m.rng, env.Pos, env.Area)
	keep := func(v SatView) bool { return !sky.Obstructed(v.AzimuthDeg, v.ElevationDeg) }

	epoch := int64(env.At / (EpochSeconds * time.Second))
	reselect := epoch != m.lastEpoch || m.serving < 0

	// Check the current serving satellite against the (possibly moved)
	// skyline; after ReacquireSeconds of obstruction the dish re-targets.
	var servingView SatView
	if m.serving >= 0 {
		servingView = m.cons.View(m.serving, env.Pos, env.At)
		if servingView.ElevationDeg < m.plan.MinElevationDeg {
			reselect = true // satellite moved out of the dish's cone
		} else if sky.Obstructed(servingView.AzimuthDeg, servingView.ElevationDeg) {
			m.obstSecs++
			if m.obstSecs >= m.plan.ReacquireSeconds {
				reselect = true
			}
		} else {
			m.obstSecs = 0
		}
	}

	if reselect {
		prev := m.serving
		best, ok := m.cons.Best(env.Pos, env.At, m.plan.MinElevationDeg, keep)
		if ok {
			m.serving = best.Index
			servingView = best
			m.obstSecs = 0
		} else {
			m.serving = -1
		}
		m.handover = m.serving != prev && prev != -1
		if m.serving != prev {
			// A new beam allocation re-draws the epoch load.
			m.fading.Reset(1)
		}
		m.lastEpoch = epoch
	} else if epoch != m.lastEpoch {
		m.lastEpoch = epoch
		m.handover = false
	} else {
		m.handover = false
	}

	s := channel.Sample{At: env.At}
	lostTrack := m.serving >= 0 && env.SpeedKmh > 1 && m.rng.Float64() < m.plan.TrackingLossProb

	// Street-level clutter: beyond the quasi-static skyline, objects
	// whipping past at driving speed (buildings, overpasses, trees)
	// break line of sight for individual seconds. This is what makes
	// Starlink suffer downtown (§2: "requires Line-of-Sight").
	clutterNow := m.serving >= 0 && m.rng.Float64() < m.clutterProb(env)

	obstructedNow := m.serving >= 0 &&
		(sky.Obstructed(servingView.AzimuthDeg, servingView.ElevationDeg) || clutterNow)

	switch {
	case m.serving < 0:
		// No line of sight to any satellite in the dish cone.
		s.Outage = true
		s.Serving = ""
		s.DownMbps = m.rng.Float64() * 2
		s.UpMbps = m.rng.Float64() * 0.4
		s.RTT = 0
		s.LossDown, s.LossUp = 0.8, 0.8
		s.SignalDB = -10
	default:
		elev := servingView.ElevationDeg
		ef := elevationFactor(elev)
		// Per-epoch load share drawn around the plan's priority.
		load := stats.Clamp(m.fading.Step(m.rng), 0.55, 1.3)
		epochShare := m.epochShare(epoch)
		base := m.plan.PeakDownMbps * m.plan.PriorityFactor * ef * epochShare
		down := base * load
		up := m.plan.PeakUpMbps * m.plan.PriorityFactor * ef * epochShare * load

		lossD := 0.0
		lossU := 0.0
		if m.lossDown.Step(m.rng) {
			lossD += 0.02
		}
		if m.lossUp.Step(m.rng) {
			lossU += 0.02
		}
		lossD += lossBase(m.lossDown)
		lossU += lossBase(m.lossUp)
		// A bad-state second is a correlated loss burst (beam
		// contention / shallow blockage): one TCP recovery episode.
		if m.lossDown.Bad() {
			s.Burst = true
		}

		switch {
		case obstructedNow:
			// Serving satellite is behind an obstacle; the dish has not
			// re-targeted yet. Throughput collapses and loss spikes.
			down *= 0.04
			up *= 0.04
			lossD, lossU = 0.35, 0.35
			s.Outage = true
		case lostTrack:
			down *= 0.15
			up *= 0.15
			lossD += 0.08
			lossU += 0.08
		case m.handover:
			// Brief disruption while switching beams/satellites: a
			// sub-second dip with a burst of loss, which costs TCP one
			// recovery episode (not a full collapse).
			down *= 0.5
			up *= 0.5
			lossD += 0.004
			lossU += 0.004
			s.Burst = true
		}

		s.DownMbps = math.Max(0, down)
		s.UpMbps = math.Max(0, up)
		s.LossDown = stats.Clamp(lossD, 0, 1)
		s.LossUp = stats.Clamp(lossU, 0, 1)
		s.Serving = servingView.ID
		s.SignalDB = 2 + 10*math.Sin(elev*math.Pi/180) // SNR proxy in dB
		s.RTT = m.rtt(servingView)
	}
	return s
}

// epochRng returns a deterministic per-epoch RNG so that the epoch load
// share is stable within an epoch but independent across epochs.
func epochRng(seed, epoch int64) *rand.Rand {
	const mix = int64(-0x61C8864680B583EB) // golden-ratio mixing constant
	return rand.New(rand.NewSource(seed ^ (epoch+1)*mix))
}

// lossBase returns the current-state baseline loss of a Gilbert-Elliott
// chain (without drawing a loss event), used as the per-second random
// loss probability handed to the emulator.
func lossBase(g stats.GilbertElliott) float64 {
	if g.Bad() {
		return g.LossBad
	}
	return g.LossGood
}

// clutterProb returns the per-second probability that street-level
// clutter blocks the serving satellite, by area type. The narrow-cone
// Roam dish is hit harder: its serving satellites sit closer to the
// cone edge and it re-acquires slowly.
func (m *Model) clutterProb(env channel.Env) float64 {
	var p float64
	switch env.Area {
	case geo.Urban:
		p = 0.64
	case geo.Suburban:
		p = 0.06
	default:
		p = 0.03
	}
	// Dish-specific penalty from the plan spec (a Roam-shaped narrow
	// cone sets >1); mul 0 means the neutral 1, so old Plan literals
	// without the fields behave unchanged.
	mul := m.plan.ClutterMul
	if mul == 0 {
		mul = 1
	}
	if mul != 1 || m.plan.ClutterAdd != 0 {
		p = stats.Clamp(p*mul+m.plan.ClutterAdd, 0, 0.9)
	}
	if env.SpeedKmh < 1 {
		p *= 0.4 // a parked vehicle sees a quasi-static sky
	}
	return p
}

// rtt models the bent-pipe latency: user->satellite->gateway propagation
// plus the terrestrial ground segment to the PoP and scheduling jitter.
func (m *Model) rtt(v SatView) time.Duration {
	prop := SlantRTT(v.SlantRangeKm) * 2 // user-sat + sat-gateway hops
	ground := 38 * time.Millisecond
	jitter := time.Duration(m.rng.ExpFloat64() * float64(14*time.Millisecond))
	return prop + ground + jitter
}
