package netem

import (
	"time"

	"satcell/internal/obs"
)

// dirCounters is one direction's packet/byte accounting. The relay
// invariant — checked by the obs test suite — is that for each
// direction in_bytes == out_bytes + drop_bytes once deliveries drain
// (in-flight paced packets are the only transient difference).
type dirCounters struct {
	inPkts, inBytes     *obs.Counter
	outPkts, outBytes   *obs.Counter
	dropPkts, dropBytes *obs.Counter
}

func newDirCounters(reg *obs.Registry, prefix string) dirCounters {
	return dirCounters{
		inPkts:    reg.Counter(prefix + ".in_pkts"),
		inBytes:   reg.Counter(prefix + ".in_bytes"),
		outPkts:   reg.Counter(prefix + ".out_pkts"),
		outBytes:  reg.Counter(prefix + ".out_bytes"),
		dropPkts:  reg.Counter(prefix + ".drop_pkts"),
		dropBytes: reg.Counter(prefix + ".drop_bytes"),
	}
}

// relayObs is a relay's attached observability: per-direction counters,
// a queue-backlog histogram and the event tracer. Relays hold it behind
// an atomic pointer so Instrument can attach (or a supervisor can
// re-attach after a restart) without racing the pump loops; a nil
// pointer is the uninstrumented fast path — one atomic load per packet.
type relayObs struct {
	src      string
	up, down dirCounters
	sessions *obs.Counter
	refused  *obs.Counter
	queue    *obs.Histogram
	tracer   *obs.Tracer
}

func newRelayObs(src string, reg *obs.Registry, tr *obs.Tracer) *relayObs {
	return &relayObs{
		src:      src,
		up:       newDirCounters(reg, src+".up"),
		down:     newDirCounters(reg, src+".down"),
		sessions: reg.Counter(src + ".sessions"),
		refused:  reg.Counter(src + ".refused"),
		queue:    reg.Histogram(src+".queue_backlog_ms", obs.QueueMsBuckets),
		tracer:   tr,
	}
}

func (o *relayObs) dir(dir string) *dirCounters {
	if dir == "up" {
		return &o.up
	}
	return &o.down
}

// in accounts a packet entering the relay (before any gating).
func (o *relayObs) in(elapsed time.Duration, dir string, n int) {
	if o == nil {
		return
	}
	d := o.dir(dir)
	d.inPkts.Inc()
	d.inBytes.Add(int64(n))
	o.tracer.Packet(elapsed, obs.EvEnqueue, o.src, dir, n, "")
}

// drop accounts a packet dropped for the given cause (blackout, shaper,
// gate, refused, closed).
func (o *relayObs) drop(elapsed time.Duration, dir string, n int, cause string) {
	if o == nil {
		return
	}
	d := o.dir(dir)
	d.dropPkts.Inc()
	d.dropBytes.Add(int64(n))
	o.tracer.Packet(elapsed, obs.EvDrop, o.src, dir, n, cause)
}

// delivered accounts a packet leaving the relay.
func (o *relayObs) delivered(elapsed time.Duration, dir string, n int) {
	if o == nil {
		return
	}
	d := o.dir(dir)
	d.outPkts.Inc()
	d.outBytes.Add(int64(n))
	o.tracer.Packet(elapsed, obs.EvDeliver, o.src, dir, n, "")
}

// observeQueue records the pacer's serialization backlog after an admit.
func (o *relayObs) observeQueue(p *pacer) {
	if o == nil {
		return
	}
	o.queue.Observe(p.backlog().Seconds() * 1000)
}

// sessionStart / sessionEnd trace one relay session (UDP client flow or
// TCP connection).
func (o *relayObs) sessionStart(elapsed time.Duration, peer string) {
	if o == nil {
		return
	}
	o.sessions.Inc()
	o.tracer.Span(elapsed, obs.EvSessionStart, o.src, peer)
}

func (o *relayObs) sessionEnd(elapsed time.Duration, peer string) {
	if o == nil {
		return
	}
	o.tracer.Span(elapsed, obs.EvSessionEnd, o.src, peer)
}

// refusedSession accounts a session/connection refused by the fault
// gate or a failed upstream dial.
func (o *relayObs) refusedSession(elapsed time.Duration, peer string) {
	if o == nil {
		return
	}
	o.refused.Inc()
	o.tracer.Span(elapsed, obs.EvDrop, o.src, "refused: "+peer)
}

// Instrument attaches a metrics registry and event tracer to the relay
// under the "relay.udp" namespace: per-direction in/out/drop counters,
// session counters, a queue-backlog histogram, and sampled gauges for
// timer-registry depth, client count and per-direction pacing backlog.
// Either argument may be nil. Counters are get-or-create by name, so a
// supervised restart that instruments its replacement relay on the same
// registry keeps accumulating into the same series. Instrumentation
// only reads clocks and counters; it never alters shaping decisions.
func (r *UDPRelay) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	if reg == nil && tr == nil {
		return
	}
	const src = "relay.udp"
	r.obs.Store(newRelayObs(src, reg, tr))
	reg.RegisterFunc(src+".timers.pending", func() float64 { return float64(r.timers.depth()) })
	reg.RegisterFunc(src+".clients", func() float64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return float64(len(r.clients))
	})
	reg.RegisterFunc(src+".up.backlog_ms", func() float64 { return r.toServer.backlog().Seconds() * 1000 })
	reg.RegisterFunc(src+".down.backlog_ms", func() float64 { return r.toClient.backlog().Seconds() * 1000 })
}

// Counters is a point-in-time read of a relay's per-direction totals
// (zero when uninstrumented) — the shutdown-summary view.
type Counters struct {
	UpBytes, UpPkts, UpDrops       int64
	DownBytes, DownPkts, DownDrops int64
	Sessions                       int64
}

func (o *relayObs) counters() Counters {
	if o == nil {
		return Counters{}
	}
	return Counters{
		UpBytes: o.up.outBytes.Value(), UpPkts: o.up.outPkts.Value(), UpDrops: o.up.dropPkts.Value(),
		DownBytes: o.down.outBytes.Value(), DownPkts: o.down.outPkts.Value(), DownDrops: o.down.dropPkts.Value(),
		Sessions: o.sessions.Value(),
	}
}

// Counters snapshots the relay's delivered/dropped totals.
func (r *UDPRelay) Counters() Counters { return r.obs.Load().counters() }

// Instrument attaches observability to the TCP relay under the
// "relay.tcp" namespace. Byte streams drop nothing in flight (blackouts
// stall, the kernel retransmits); only the chunks a pump still holds
// when it exits are dropped, with cause "closed", so in_bytes ==
// out_bytes + drop_bytes exactly once the pumps exit.
func (r *TCPRelay) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	if reg == nil && tr == nil {
		return
	}
	r.obs.Store(newRelayObs("relay.tcp", reg, tr))
}

// Counters snapshots the relay's relayed-byte totals.
func (r *TCPRelay) Counters() Counters { return r.obs.Load().counters() }
