// mpshell is the trace-driven network shaper of the toolkit: a
// userspace stand-in for the paper's MpShell (a Mahimahi variant). It
// relays UDP or TCP traffic toward a target while pacing, delaying and
// (for UDP) dropping packets according to a replayed channel trace or
// constant conditions, so the real measurement tools experience
// emulated Starlink/cellular networks.
//
//	mpshell -listen 127.0.0.1:6000 -target 127.0.0.1:5201 -trace mob.csv
//	mpshell -proto tcp -listen :6000 -target :5201 -rate 50 -delay 30ms -loss 0.005
//
// A deterministic fault scenario can be layered on top of the shaping
// with -faults (see internal/faults.ParseSpec for the grammar):
//
//	mpshell -target :5201 -faults 'blackout@5s+800ms;auto=4/60s;corrupt=0.001' -faultseed 7
//
// While shaping, -debug-addr serves live introspection — metrics
// (/debug/vars), the event ring (/debug/events), pprof
// (/debug/pprof/) and health (/debug/health) — and -events-out saves
// the event trace as JSONL on shutdown, renderable with
// satcell-analyze -events. The ring is the live packet path's timeline
// (relays, fault injector, iperf); campaign and streaming runs keep
// theirs in the TELEMETRY journal instead.
package main

import (
	"context"
	"flag"
	"os"
	"os/signal"
	"sync"
	"time"

	"satcell/internal/faults"
	"satcell/internal/netem"
	"satcell/internal/obs"
	"satcell/internal/trace"
)

// shapedRelay is what mpshell needs from either relay flavour: the
// lifecycle, observability attachment and the shutdown-summary totals.
type shapedRelay interface {
	Close() error
	Instrument(reg *obs.Registry, tr *obs.Tracer)
	Counters() netem.Counters
}

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:6000", "client-facing address")
		target    = flag.String("target", "", "server address to forward to (required)")
		proto     = flag.String("proto", "udp", "relay protocol: udp or tcp")
		tracePt   = flag.String("trace", "", "channel trace CSV to replay (satcell format)")
		rate      = flag.Float64("rate", 100, "constant capacity in Mbps (when no trace)")
		delay     = flag.Duration("delay", 20*time.Millisecond, "constant one-way delay (when no trace)")
		loss      = flag.Float64("loss", 0, "constant datagram loss probability (when no trace)")
		seed      = flag.Int64("seed", 1, "loss RNG seed")
		faultsF   = flag.String("faults", "", "fault scenario spec (e.g. 'blackout@5s+800ms;auto=4/60s;corrupt=0.001')")
		fseed     = flag.Int64("faultseed", 1, "fault schedule seed (replays bit-identically)")
		debugAddr = flag.String("debug-addr", "", "serve /debug/vars, /debug/events, /debug/pprof/ and /debug/health on this address")
		eventsOut = flag.String("events-out", "", "write the event trace as JSONL to this file on shutdown")
		vtime     = flag.Bool("vtime", false, "run the shaped session in virtual time on the sim stack (no sockets): per-second CSV on stdout, deterministic per seed")
		vtimeDur  = flag.Duration("vtime-duration", 30*time.Second, "virtual session length (with -vtime)")
		vtimeTr2  = flag.String("vtime-trace2", "", "second-path trace CSV: runs an MPTCP replay across both paths (with -vtime)")
	)
	flag.Parse()
	logger := obs.NewLogger("mpshell")
	if *target == "" && !*vtime {
		logger.Fatalf("-target is required")
	}

	// The registry and tracer live for the whole process: supervised
	// restarts re-instrument the replacement relay on the same series,
	// so counters accumulate across kill/restore cycles.
	reg := obs.NewRegistry()
	events := obs.NewTracer(0)

	var gate *faults.Injector
	var fsched *faults.Schedule
	var schedDigest string
	if *faultsF != "" {
		sched, err := faults.ParseSpec(*faultsF, *fseed)
		if err != nil {
			logger.Fatalf("%v", err)
		}
		fsched = &sched
		gate = faults.NewInjector(sched)
		gate.Instrument(reg, events)
		schedDigest = sched.Digest()[:12]
		logger.Infof("%s digest=%s", sched.String(), schedDigest)
	}

	var up, down netem.Shape
	if *tracePt != "" {
		f, err := os.Open(*tracePt)
		if err != nil {
			logger.Fatalf("%v", err)
		}
		tr, err := trace.ReadCSV(f)
		f.Close()
		if err != nil {
			logger.Fatalf("read trace: %v", err)
		}
		down = netem.FromTrace(tr, false)
		up = netem.FromTrace(tr, true)
		logger.Infof("replaying %s trace (%d samples, %s)",
			tr.Network, len(tr.Samples), tr.Duration())
	} else {
		down = netem.ConstantShape(*rate, *delay, *loss)
		up = netem.ConstantShape(*rate, *delay, *loss)
	}

	if *vtime {
		runVirtual(logger, down, up, fsched, *seed, *vtimeDur, *vtimeTr2)
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// The relay is created through a closure so the fault schedule's
	// restart windows can kill it and bring it back on the same port;
	// each incarnation is instrumented on the shared registry.
	var (
		start func(addr string) (shapedRelay, string, error)
		fgate netem.FaultGate
	)
	if gate != nil {
		fgate = gate
	}
	switch *proto {
	case "udp":
		start = func(addr string) (shapedRelay, string, error) {
			r, err := netem.NewUDPRelayFaulty(addr, *target, up, down, *seed, fgate)
			if err != nil {
				return nil, "", err
			}
			r.Instrument(reg, events)
			return r, r.Addr().String(), nil
		}
	case "tcp":
		start = func(addr string) (shapedRelay, string, error) {
			r, err := netem.NewTCPRelayFaulty(addr, *target, up, down, fgate)
			if err != nil {
				return nil, "", err
			}
			r.Instrument(reg, events)
			return r, r.Addr().String(), nil
		}
	default:
		logger.Fatalf("unknown proto %q", *proto)
	}

	relay, addr, err := start(*listen)
	if err != nil {
		logger.Fatalf("%v", err)
	}
	logger.Infof("%s %s -> %s", *proto, addr, *target)

	startedAt := time.Now()
	if *debugAddr != "" {
		health := map[string]func() any{
			"proto":      func() any { return *proto },
			"listen":     func() any { return addr },
			"target":     func() any { return *target },
			"uptime_sec": func() any { return time.Since(startedAt).Seconds() },
		}
		if schedDigest != "" {
			health["fault_digest"] = func() any { return schedDigest }
		}
		srv, err := obs.ServeDebug(*debugAddr, reg, events, health)
		if err != nil {
			logger.Fatalf("debug endpoint: %v", err)
		}
		defer srv.Close()
		logger.Infof("debug endpoint on http://%s/debug/vars", srv.Addr())
	}

	var mu sync.Mutex
	if gate != nil && len(gate.Schedule().Restarts) > 0 {
		sup := faults.Supervise(gate.Schedule().Restarts,
			func() {
				mu.Lock()
				relay.Close()
				mu.Unlock()
				logger.Warnf("relay killed (restart window)")
			},
			func() {
				r2, _, err := start(addr)
				if err != nil {
					logger.Errorf("relay restart failed: %v", err)
					return
				}
				mu.Lock()
				relay = r2
				mu.Unlock()
				logger.Infof("relay restored")
			})
		defer sup.Stop()
	}

	<-ctx.Done()
	mu.Lock()
	relay.Close()
	c := relay.Counters()
	mu.Unlock()

	// Structured shutdown summary: what actually moved through the
	// shaped link, per direction, plus what the fault scenario did.
	logger.Infof("shutdown summary: uptime=%s sessions=%d "+
		"up_bytes=%d up_pkts=%d up_drops=%d down_bytes=%d down_pkts=%d down_drops=%d",
		time.Since(startedAt).Round(time.Millisecond), c.Sessions,
		c.UpBytes, c.UpPkts, c.UpDrops, c.DownBytes, c.DownPkts, c.DownDrops)
	if gate != nil {
		st := gate.Stats()
		logger.Infof("faults applied: blackout_drops=%d corrupted=%d truncated=%d dials_refused=%d",
			st.BlackoutDrops, st.Corrupted, st.Truncated, st.DialsRefused)
	}
	if *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		if err != nil {
			logger.Fatalf("events: %v", err)
		}
		if err := events.WriteJSONL(f); err != nil {
			f.Close()
			logger.Fatalf("events: %v", err)
		}
		if err := f.Close(); err != nil {
			logger.Fatalf("events: %v", err)
		}
		logger.Infof("event trace: %d events -> %s (%d overwritten by ring wrap)",
			events.Total()-events.Dropped(), *eventsOut, events.Dropped())
	}
}
