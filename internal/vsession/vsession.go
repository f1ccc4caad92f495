// Package vsession runs a complete measurement session — shaped or
// trace-replayed paths, fault windows, a bulk download and an RTT
// prober — entirely in virtual time on the discrete-event emulator, as
// fast as the CPU can drain the event heap. It is the one place that
// wires emulated paths to the simulated transports: the -vtime driver
// behind mpshell, the campaign's vsession stage, and the §6 replays
// behind fig10, fig11 and the MPTCP ablation all run through Run.
//
// Fidelity caveat: a virtual session replays the *model* stack (emu
// links + simulated TCP/MPTCP/UDP), not the live relay stack. Real
// sockets carry wall-clock deadlines inside the kernel, so they cannot
// be driven by a vclock.SimClock; what virtual mode buys instead is a
// bit-exact, repeatable session — the same seed always yields the same
// per-second series, byte for byte — which is exactly what the live
// path can never promise (Hypatia makes the same trade for LEO
// constellation studies). Fault windows map onto the channel: a
// blackout or component-restart window forces the path into outage
// (zero rate), approximating the relay's fault gate.
package vsession

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"time"

	"satcell/internal/channel"
	"satcell/internal/emu"
	"satcell/internal/faults"
	"satcell/internal/mptcp"
	"satcell/internal/netem"
	"satcell/internal/tcp"
	"satcell/internal/udp"
)

// traceStep is the sampling granularity when freezing a netem.Shape
// (plus its fault schedule) into a channel trace for the emulator.
// Fault-window edges land on this grid.
const traceStep = 100 * time.Millisecond

// Flow numbering inside the session's muxes: data subflows start at
// flowData (one per path, flowData+i), the prober uses flowPing on the
// primary path.
const (
	flowData = 1
	flowPing = 100
)

// pingInterval spaces the UDP RTT probes.
const pingInterval = 200 * time.Millisecond

// PathSpec declares one emulated path of the session.
type PathSpec struct {
	// Name labels the path in summaries and errors ("starlink",
	// "cell", ...).
	Name string
	// Trace, when non-nil, is replayed as given: its samples drive the
	// path's rate, RTT and loss. A trace-backed path takes neither
	// shapes nor faults.
	Trace *channel.Trace
	// Down and Up shape the two directions (netem semantics: nil
	// functions default to 100 Mbps / no delay / no loss).
	Down, Up netem.Shape
	// Faults, when non-nil, forces the path into outage during every
	// blackout and component-restart window.
	Faults *faults.Schedule
	// QueueBytes is the droptail buffer per direction (0 = emu default).
	QueueBytes int
}

// Config parameterises one virtual session.
type Config struct {
	// Paths is the emulated path set: one entry runs a plain TCP
	// download, two or more run an MPTCP connection with one subflow
	// per path. At least one path is required.
	Paths []PathSpec
	// Duration is the virtual session length (default 30s, rounded up
	// to a whole second so the per-second series is complete).
	Duration time.Duration
	// Seed drives every stochastic choice (loss gates); same seed,
	// same series.
	Seed int64
	// RcvBuf is the transport receive buffer (0 = transport default).
	RcvBuf int
	// Scheduler is the MPTCP data scheduler (nil = MinRTT; ignored for
	// single-path sessions). A scheduler keeps per-connection state, so
	// every session needs its own.
	Scheduler mptcp.Scheduler
	// Coupled enables LIA coupled congestion control across MPTCP
	// subflows (ignored for single-path sessions).
	Coupled bool
	// NoProbe keeps the UDP RTT prober silent: the download has the
	// paths to itself, and the RTT columns read -1 with no probes.
	NoProbe bool
}

func (c *Config) defaults() {
	if c.Duration <= 0 {
		c.Duration = 30 * time.Second
	}
	if r := c.Duration % time.Second; r != 0 {
		c.Duration += time.Second - r
	}
}

// Second is one row of the per-second series.
type Second struct {
	// T is the second index, 1-based: row T covers (T-1)s .. Ts.
	T int
	// Bytes and Mbps are the goodput delivered during the second.
	Bytes int64
	Mbps  float64
	// RTTms is the mean RTT of probes answered during the second, or
	// -1 when no probe came back.
	RTTms float64
	// Probes and Lost count RTT probes sent during the second and how
	// many of the probes sent so far are still unanswered.
	Probes, Lost int64
	// DownFrac is the fraction of the second the paths spent in a
	// fault window, averaged across paths.
	DownFrac float64
}

// Result is the outcome of one virtual session.
type Result struct {
	// Seconds is the per-second series, rows 1..Duration.
	Seconds []Second
	// Bytes is the total goodput delivered, including any delivery at
	// the session's final instant, after the last row was taken.
	Bytes int64
	// MeanMbps is the session-mean goodput, computed exactly as the
	// transports' MeanGoodputMbps.
	MeanMbps float64
	// MeanRTTms is the mean over all answered probes (-1 if none).
	MeanRTTms float64
	// Probes and Lost total the prober's counters.
	Probes, Lost int64
	// Duration is the virtual session length.
	Duration time.Duration
	// Digest is the sha256 of CSV(): two runs replayed the same
	// session iff their digests match.
	Digest string
}

// CSV renders the per-second series deterministically; the digest is
// computed over exactly these bytes.
func (r *Result) CSV() string {
	var b strings.Builder
	b.WriteString("t,mbps,rtt_ms,probes,lost,down_frac\n")
	for _, s := range r.Seconds {
		fmt.Fprintf(&b, "%d,%.4f,%.2f,%d,%d,%.3f\n",
			s.T, s.Mbps, s.RTTms, s.Probes, s.Lost, s.DownFrac)
	}
	return b.String()
}

// Summary renders a one-line human summary.
func (r *Result) Summary() string {
	return fmt.Sprintf("%ds virtual: %.2f Mbps mean, rtt %.1f ms, %d/%d probes lost, digest %s",
		int(r.Duration/time.Second), r.MeanMbps, r.MeanRTTms, r.Lost, r.Probes, r.Digest[:12])
}

// downAt reports whether the path's fault schedule has it down at t.
func (p *PathSpec) downAt(t time.Duration) bool {
	return p.Faults != nil && (p.Faults.BlackoutAt(t) || p.Faults.ComponentDownAt(t))
}

// shaped reports whether any of s's functions is set.
func shaped(s netem.Shape) bool {
	return s.RateMbps != nil || s.Delay != nil || s.LossProb != nil
}

// buildTrace freezes a PathSpec into a channel trace on the traceStep
// grid: the emulator replays traces, so the shape functions (and the
// fault mask) are sampled once up front. Sampling is what makes the
// session hermetic — every stochastic input is fixed before the first
// event fires.
func buildTrace(spec PathSpec, duration time.Duration) *channel.Trace {
	// A partially specified Shape means the same here as in the relays.
	down, up := spec.Down, spec.Up
	down.FillDefaults()
	up.FillDefaults()
	tr := &channel.Trace{Network: channel.NetworkID("vsession:" + spec.Name)}
	for t := time.Duration(0); t <= duration; t += traceStep {
		s := channel.Sample{
			At:       t,
			DownMbps: down.RateMbps(t),
			UpMbps:   up.RateMbps(t),
			RTT:      down.Delay(t) + up.Delay(t),
			LossDown: down.LossProb(t),
			LossUp:   up.LossProb(t),
		}
		if spec.downAt(t) {
			s.DownMbps, s.UpMbps = 0, 0
			s.LossDown, s.LossUp = 1, 1
			s.Outage = true
		}
		tr.Samples = append(tr.Samples, s)
	}
	return tr
}

// downFrac returns the fraction of [from, to) the spec spends in a
// fault window, on the trace grid.
func downFrac(specs []PathSpec, from, to time.Duration) float64 {
	if len(specs) == 0 {
		return 0
	}
	var sum float64
	for _, spec := range specs {
		var down, total int
		for t := from; t < to; t += traceStep {
			total++
			if spec.downAt(t) {
				down++
			}
		}
		if total > 0 {
			sum += float64(down) / float64(total)
		}
	}
	return sum / float64(len(specs))
}

// transport abstracts the single-path and multipath downloads.
type transport interface {
	Start()
	Stop()
	BytesDelivered() int64
}

// Run executes the session and returns its per-second series. The only
// wall time spent is the CPU time to drain the event heap.
func Run(cfg Config) (*Result, error) {
	s, err := start(cfg)
	if err != nil {
		return nil, err
	}
	s.eng.RunUntil(s.cfg.Duration)
	return s.finish(), nil
}

// session is a started virtual session: the engine, the transports
// running on it and the result the sampler fills in.
type session struct {
	cfg    Config
	eng    *emu.Engine
	dps    []*emu.DuplexPath
	conn   transport
	pinger *udp.Pinger
	res    *Result
}

// start validates cfg, builds the session's paths and transports,
// schedules the per-second sampler and starts the download and the
// prober at virtual time zero.
func start(cfg Config) (*session, error) {
	if len(cfg.Paths) == 0 {
		return nil, fmt.Errorf("vsession: at least one path required")
	}
	var errs []error
	for i, p := range cfg.Paths {
		if p.Trace != nil && (shaped(p.Down) || shaped(p.Up) || p.Faults != nil) {
			errs = append(errs, fmt.Errorf("vsession: path %d (%q): Trace set together with Down, Up or Faults", i, p.Name))
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	cfg.defaults()

	eng := emu.NewEngine()
	dps := make([]*emu.DuplexPath, len(cfg.Paths))
	for i, spec := range cfg.Paths {
		tr := spec.Trace
		if tr == nil {
			tr = buildTrace(spec, cfg.Duration)
		}
		dps[i] = emu.NewDuplexPath(eng, tr, emu.PathConfig{
			QueueBytes: spec.QueueBytes,
			Seed:       cfg.Seed + int64(i)*101,
		})
	}

	s := &session{cfg: cfg, eng: eng, dps: dps}
	if len(dps) == 1 {
		s.conn = tcp.NewDownload(eng, dps[0], flowData, tcp.Config{RcvBuf: cfg.RcvBuf})
	} else {
		s.conn = mptcp.NewConn(eng, dps, flowData, mptcp.Config{
			RcvBuf:    cfg.RcvBuf,
			Scheduler: cfg.Scheduler,
			Coupled:   cfg.Coupled,
		})
	}
	s.pinger = udp.NewPinger(eng, dps[0], flowPing, pingInterval)

	s.res = &Result{Duration: cfg.Duration}
	seconds := int(cfg.Duration / time.Second) // >= 1 after defaults
	s.res.Seconds = make([]Second, 0, seconds)

	// The sampler keeps one event in the engine: the N row positions are
	// reserved up front, and each row schedules the next into its
	// reserved slot, so every row runs at the (at, seq) it would have
	// had as one of N events pushed here.
	first := eng.Reserve()
	for range seconds - 1 {
		eng.Reserve()
	}
	var prevBytes int64
	var prevSent, prevRTTs, sec int
	var row func()
	row = func() {
		sec++
		bytes := s.conn.BytesDelivered()
		st := s.pinger.Stats()
		r := Second{
			T:        sec,
			Bytes:    bytes - prevBytes,
			Mbps:     float64(bytes-prevBytes) * 8 / 1e6,
			RTTms:    -1,
			Probes:   st.Sent - int64(prevSent),
			Lost:     st.Sent - st.Received,
			DownFrac: downFrac(cfg.Paths, time.Duration(sec-1)*time.Second, time.Duration(sec)*time.Second),
		}
		if fresh := st.RTTs[prevRTTs:]; len(fresh) > 0 {
			var sum time.Duration
			for _, rtt := range fresh {
				sum += rtt
			}
			r.RTTms = float64(sum) / float64(len(fresh)) / float64(time.Millisecond)
		}
		prevBytes = bytes
		prevSent = int(st.Sent)
		prevRTTs = len(st.RTTs)
		s.res.Seconds = append(s.res.Seconds, r)
		if sec < seconds {
			eng.ScheduleSeq(time.Duration(sec+1)*time.Second, first+uint64(sec), row)
		}
	}
	eng.ScheduleSeq(time.Second, first, row)

	s.conn.Start()
	if !cfg.NoProbe {
		s.pinger.Start()
	}
	return s, nil
}

// finish stops the transports and completes the result.
func (s *session) finish() *Result {
	s.pinger.Stop()
	s.conn.Stop()

	res := s.res
	res.Bytes = s.conn.BytesDelivered()
	res.MeanMbps = float64(res.Bytes*8) / s.cfg.Duration.Seconds() / 1e6
	st := s.pinger.Stats()
	res.Probes, res.Lost = st.Sent, st.Sent-st.Received
	res.MeanRTTms = -1
	if len(st.RTTs) > 0 {
		var sum time.Duration
		for _, rtt := range st.RTTs {
			sum += rtt
		}
		res.MeanRTTms = float64(sum) / float64(len(st.RTTs)) / float64(time.Millisecond)
	}
	h := sha256.Sum256([]byte(res.CSV()))
	res.Digest = hex.EncodeToString(h[:])
	return res
}
