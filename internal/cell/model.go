package cell

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"satcell/internal/channel"
	"satcell/internal/geo"
	"satcell/internal/stats"
)

// Radio-link constants.
const (
	refDistanceKm  = 0.1  // path-loss reference distance
	noiseFloorDBm  = -104 // thermal noise + receiver figure over ~25 MHz
	maxSINRdB      = 28   // modulation ceiling (256-QAM region)
	minServeSINRdB = -6   // below this the link is unusable
	mimoGain       = 1.9  // effective spatial-multiplexing gain
	maxSpectralEff = 7.0  // bits/s/Hz cap
	handoverHystKm = 0.15 // extra distance beyond break-even before handover
)

// pathLossExp returns the log-distance path-loss exponent per area type:
// urban canyons attenuate fast; rural macro sites on tall towers over
// open terrain propagate much further.
func pathLossExp(a geo.AreaType) float64 {
	switch a {
	case geo.Urban:
		return 3.4
	case geo.Suburban:
		return 3.1
	default:
		return 2.8
	}
}

// Model is the cellular channel sampler for one carrier. It implements
// channel.Model.
type Model struct {
	carrier Carrier
	seed    int64

	rng        *rand.Rand
	serving    servingCell
	loss       stats.GilbertElliott
	load       stats.OrnsteinUhlenbeck
	cellSeq    int
	handover   int // seconds of handover disruption remaining
	shareEpoch int64
	share      float64
	logShare   float64
}

type servingCell struct {
	valid  bool
	pos    geo.Anchor
	tech   Tech
	id     string
	area   geo.AreaType
	shadow float64 // per-cell shadow-fading offset (dB), drawn at attach
	// breakKm is the distance at which a neighbouring site becomes
	// closer and a handover triggers (drawn once per serving cell).
	breakKm float64
}

// NewModel builds a carrier channel model.
func NewModel(carrier Carrier, seed int64) *Model {
	m := &Model{carrier: carrier, seed: seed}
	m.Reset()
	return m
}

// ModelBuilder returns a channel.Builder producing independent Model
// instances for the carrier; every instance starts its random stream
// from the same seed, making a fresh model per drive equivalent to a
// Reset() on a shared one.
func ModelBuilder(carrier Carrier, seed int64) channel.Builder {
	return func() channel.Model { return NewModel(carrier, seed) }
}

// Network implements channel.Model.
func (m *Model) Network() channel.NetworkID { return m.carrier.Network }

// Reset implements channel.Model.
func (m *Model) Reset() {
	m.rng = rand.New(rand.NewSource(m.seed))
	m.serving = servingCell{}
	// Cellular links hide radio loss behind HARQ/RLC retransmission:
	// what TCP sees is nearly loss-free apart from rare bad seconds
	// (cell-edge, handover), which keeps cellular TCP ~= UDP (§4.1).
	m.loss = stats.GilbertElliott{
		PGoodToBad: 0.005, PBadToGood: 0.5,
		LossGood: 0.000002, LossBad: 0.002,
	}
	m.load = stats.OrnsteinUhlenbeck{Mean: 1, Theta: 0.25, Sigma: 0.06}
	m.cellSeq = 0
	m.handover = 0
	m.shareEpoch = -1
	m.share = 0.5
	m.logShare = -0.6539
}

// attach picks a new serving cell near pos for the given area type.
func (m *Model) attach(pos geo.LatLon, area geo.AreaType) {
	p := m.carrier.Deployment[area]
	d := rayleighNearest(m.rng, p.SiteDensityPerKm2)
	if d > p.MaxRangeKm {
		// Nearest site is out of range: dead zone.
		m.serving = servingCell{}
		return
	}
	bearing := m.rng.Float64() * 360
	tech := LTE
	if m.rng.Float64() < p.Prob5G {
		tech = NR5GLow
	}
	m.cellSeq++
	m.serving = servingCell{
		valid:  true,
		pos:    geo.NewAnchor(geo.Destination(pos, bearing, d)),
		tech:   tech,
		id:     fmt.Sprintf("%s-%s-%04d", m.carrier.Network, tech, m.cellSeq),
		area:   area,
		shadow: 3 * m.rng.NormFloat64(),
		// A neighbour takes over roughly one inter-site distance away.
		breakKm: d + rayleighNearest(m.rng, p.SiteDensityPerKm2) + handoverHystKm,
	}
}

// Sample implements channel.Model.
func (m *Model) Sample(env channel.Env) channel.Sample {
	area := env.Area
	p := m.carrier.Deployment[area]

	// (Re-)attachment: no cell yet, area class changed (deployment
	// density changes), or we drove past the handover break distance.
	// d is the distance to the serving cell while haveD holds; a
	// re-attachment moves the cell.
	var d float64
	haveD := false
	if !m.serving.valid {
		m.attach(env.Pos, area)
		// Initial attach does not count as a handover disruption.
	} else {
		d, haveD = m.serving.pos.DistanceKm(env.Pos), true
		if m.serving.area != area || d > m.serving.breakKm || d > p.MaxRangeKm {
			m.attach(env.Pos, area)
			haveD = false
			if m.serving.valid {
				m.handover = 1 // efficient handover: one degraded second
			}
		}
	}

	s := channel.Sample{At: env.At}
	if !m.serving.valid {
		// Dead zone: periodically rescan for coverage.
		if m.rng.Float64() < 0.2 {
			m.attach(env.Pos, area)
		}
		s.Outage = true
		s.DownMbps = 0
		s.UpMbps = 0
		s.LossDown, s.LossUp = 1, 1
		s.SignalDB = -130
		return s
	}

	if !haveD {
		d = m.serving.pos.DistanceKm(env.Pos)
	}
	rsrp := m.carrier.TxRefDBm - 10*pathLossExp(area)*math.Log10(math.Max(d, 0.02)/refDistanceKm)
	// Shadow fading: a per-cell offset (terrain between us and this
	// site) plus small fast fading. Keeping the large component fixed
	// per cell avoids absurd second-scale coverage flapping.
	rsrp += m.serving.shadow + 1.5*m.rng.NormFloat64()

	interf := 0.0
	if area == geo.Urban {
		interf = 3 // dense reuse raises the interference floor
	}
	sinr := stats.Clamp(rsrp-noiseFloorDBm-interf, minServeSINRdB-8, maxSINRdB)
	if sinr < minServeSINRdB-4 {
		// Deep cell edge: no usable service.
		s.Outage = true
		s.DownMbps = 0
		s.UpMbps = 0
		s.LossDown, s.LossUp = 1, 1
		s.SignalDB = rsrp
		s.Serving = m.serving.id
		return s
	}
	if sinr < minServeSINRdB {
		// Shallow cell edge: the connection survives at a crawl with
		// elevated loss (robust MCS, HARQ retries) — degraded, not dead.
		s.DownMbps = 1 + 2*m.rng.Float64()
		s.UpMbps = 0.3 + 0.5*m.rng.Float64()
		s.LossDown, s.LossUp = 0.01, 0.012
		s.SignalDB = rsrp
		s.Serving = m.serving.id
		s.RTT = m.rtt() + 30*time.Millisecond
		return s
	}

	eff := math.Min(maxSpectralEff, math.Log2(1+math.Pow(10, sinr/10)))
	bw := m.carrier.BWMHz[m.serving.tech]
	// Cell load moves on tens-of-seconds timescales: the lognormal
	// component evolves as an AR(1) process over 20 s epochs (load is
	// correlated — the same users stay attached), the OU process adds
	// gentle second-scale variation on top.
	if epoch := int64(env.At / (20 * time.Second)); epoch != m.shareEpoch {
		const (
			mu    = -0.6539 // ln(0.52)
			sigma = 0.535
			rho   = 0.8
		)
		for m.shareEpoch < epoch {
			m.shareEpoch++
			m.logShare = rho*m.logShare + (1-rho)*mu +
				sigma*math.Sqrt(1-rho*rho)*m.rng.NormFloat64()
		}
		m.share = math.Exp(m.logShare)
	}
	share := stats.Clamp(
		stats.Clamp(m.load.Step(m.rng), 0.55, 1.35)*m.share,
		0.08, 0.95)
	down := bw * eff * mimoGain * share
	up := down * m.carrier.UplinkShare

	lossEvent := m.loss.Step(m.rng)
	lossD := lossBase(m.loss)
	lossU := lossD * 1.2
	if lossEvent {
		lossD += 0.004
		lossU += 0.005
	}
	// Bad-state seconds and handovers are correlated loss events: one
	// TCP recovery episode, not a storm of independent drops (HARQ and
	// make-before-break handover keep transport-visible loss bursty).
	if m.loss.Bad() || lossEvent {
		s.Burst = true
	}
	if m.handover > 0 {
		m.handover--
		down *= 0.45
		up *= 0.45
		lossD += 0.004
		s.Burst = true
	}

	s.DownMbps = math.Max(0, down)
	s.UpMbps = math.Max(0, up)
	s.LossDown = stats.Clamp(lossD, 0, 1)
	s.LossUp = stats.Clamp(lossU, 0, 1)
	s.SignalDB = rsrp
	s.Serving = m.serving.id
	s.RTT = m.rtt()
	return s
}

// lossBase returns the current-state baseline loss probability of the
// Gilbert-Elliott chain.
func lossBase(g stats.GilbertElliott) float64 {
	if g.Bad() {
		return g.LossBad
	}
	return g.LossGood
}

// rtt models the radio access + core network round-trip time.
func (m *Model) rtt() time.Duration {
	jitter := time.Duration(m.rng.ExpFloat64() * float64(9*time.Millisecond))
	return m.carrier.CoreRTT + jitter
}
