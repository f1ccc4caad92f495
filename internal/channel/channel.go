// Package channel defines the common abstraction shared by the LEO
// satellite and cellular radio models: a time-sampled description of the
// instantaneous network conditions a device observes (available
// capacity, base RTT, loss probability, signal, serving element).
//
// Channel models are *generative*: given the drive environment at time t
// (position, speed, area type) they produce the next Sample. The emulator
// (internal/emu) and the trace tooling (internal/trace) both consume
// sequences of Samples.
package channel

import (
	"time"

	"satcell/internal/geo"
)

// NetworkID identifies one network service by its short id (the label
// used in the paper's figures for the built-in five). It is an open,
// string-backed identity: any id registered in a Catalog is valid, so
// new carriers, plans or constellations can be added without touching
// this package. The zero value is NetworkInvalid.
type NetworkID string

// The paper's five measured services, registered in the default
// catalog. Their ids double as their short display labels.
const (
	StarlinkRoam     NetworkID = "RM"
	StarlinkMobility NetworkID = "MOB"
	ATT              NetworkID = "ATT"
	TMobile          NetworkID = "TM"
	Verizon          NetworkID = "VZ"
)

// NetworkInvalid is the explicit not-a-network sentinel returned by
// failed parses. It is never registered in a catalog, so it can always
// be distinguished from a valid id (the old int enum returned 0 on
// error, which aliased StarlinkRoam).
const NetworkInvalid NetworkID = ""

// Networks lists the paper's five built-in services in canonical order.
// Campaign code should iterate a Scenario's networks (or a Catalog)
// instead; this list exists for the paper-specific analyses and tests.
var Networks = []NetworkID{StarlinkRoam, StarlinkMobility, ATT, TMobile, Verizon}

// Valid reports whether n is a usable id (not the invalid sentinel).
// It does not check catalog membership; see Catalog.Has for that.
func (n NetworkID) Valid() bool { return n != NetworkInvalid }

// Cellular reports whether n is registered as a cellular carrier in the
// default catalog. Unregistered ids report false.
func (n NetworkID) Cellular() bool { return n.Class() == ClassCellular }

// Satellite reports whether n is registered as a satellite service in
// the default catalog. Unregistered ids report false.
func (n NetworkID) Satellite() bool { return n.Class() == ClassSatellite }

// Class returns n's class per the default catalog (ClassUnknown for
// unregistered ids).
func (n NetworkID) Class() Class {
	if spec, ok := DefaultCatalog().Spec(n); ok {
		return spec.Class
	}
	return ClassUnknown
}

// String returns the short id used in figures and CSV schemas.
func (n NetworkID) String() string {
	if n == NetworkInvalid {
		return "invalid"
	}
	return string(n)
}

// ParseNetwork converts a short id back to a NetworkID via the default
// catalog. On failure it returns the explicit NetworkInvalid sentinel
// (never a valid id) alongside the error.
func ParseNetwork(s string) (NetworkID, error) {
	return DefaultCatalog().Parse(s)
}

// Env is the drive environment a channel model samples under.
type Env struct {
	At       time.Duration // offset from the start of the drive
	Pos      geo.LatLon
	SpeedKmh float64
	Area     geo.AreaType
}

// Sample is one observation of instantaneous channel conditions.
// Capacities are the achievable UDP-level rates (what an unlimited CBR
// flow could push through); the transport simulations degrade from
// there (TCP reacts to LossDown/LossUp, queueing adds delay).
type Sample struct {
	At       time.Duration
	DownMbps float64       // downlink available capacity
	UpMbps   float64       // uplink available capacity
	RTT      time.Duration // base (unloaded) round-trip time
	LossDown float64       // random packet-loss probability, downlink
	LossUp   float64       // random packet-loss probability, uplink
	SignalDB float64       // RSRP-style signal indicator (dBm, cellular) or SNR proxy (satellite)
	Serving  string        // serving satellite or cell identifier
	Outage   bool          // true when the link is effectively down (obstruction / no coverage)
	// Burst marks seconds whose losses are one correlated burst (e.g.
	// a satellite handover gap) rather than independent random drops;
	// TCP coalesces such a burst into a single recovery episode.
	Burst bool
}

// Model generates channel samples for one network service.
type Model interface {
	// Network identifies the service this model describes.
	Network() NetworkID
	// Sample returns the channel conditions under env. Implementations
	// advance internal state (fading processes, serving element) and
	// must be called with non-decreasing env.At.
	Sample(env Env) Sample
	// Reset returns the model to its initial state so a new independent
	// drive can be generated.
	Reset()
}

// Builder constructs a fresh, independent Model instance. Parallel
// campaign generation builds one model per unit of work (one network
// over one drive) instead of sharing a Reset() model across drives, so
// a Builder must return instances whose random streams start exactly
// where Reset() would leave them.
type Builder func() Model

// Trace is an ordered sequence of samples from one model.
type Trace struct {
	Network NetworkID
	Samples []Sample
}

// Duration returns the time covered by the trace.
func (tr *Trace) Duration() time.Duration {
	if len(tr.Samples) == 0 {
		return 0
	}
	return tr.Samples[len(tr.Samples)-1].At
}

// DownSeries returns the downlink capacity in Mbps per sample.
func (tr *Trace) DownSeries() []float64 {
	out := make([]float64, len(tr.Samples))
	for i, s := range tr.Samples {
		out[i] = s.DownMbps
	}
	return out
}

// UpSeries returns the uplink capacity in Mbps per sample.
func (tr *Trace) UpSeries() []float64 {
	out := make([]float64, len(tr.Samples))
	for i, s := range tr.Samples {
		out[i] = s.UpMbps
	}
	return out
}

// At returns the sample in effect at time t (the last sample with
// Sample.At <= t), or the first sample for t before the trace start.
func (tr *Trace) At(t time.Duration) Sample {
	if len(tr.Samples) == 0 {
		return Sample{}
	}
	lo, hi := 0, len(tr.Samples)-1
	if t <= tr.Samples[0].At {
		return tr.Samples[0]
	}
	if t >= tr.Samples[hi].At {
		return tr.Samples[hi]
	}
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if tr.Samples[mid].At <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	return tr.Samples[lo]
}

// Slice returns the sub-trace covering [from, to).
func (tr *Trace) Slice(from, to time.Duration) *Trace {
	out := &Trace{Network: tr.Network}
	for _, s := range tr.Samples {
		if s.At >= from && s.At < to {
			shifted := s
			shifted.At -= from
			out.Samples = append(out.Samples, shifted)
		}
	}
	return out
}

// Record couples a channel sample with the drive environment it was
// observed under; the dataset layer stores these.
type Record struct {
	Env    Env
	Sample Sample
}
