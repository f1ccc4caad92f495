package main

import (
	"context"
	"fmt"
	"time"

	"satcell/internal/meas/iperf"
	"satcell/internal/meas/udpping"
	"satcell/internal/netem"
	"satcell/internal/obs"
)

// The relay workload's link: 100 Mbps down, 20 Mbps up, 10 ms one-way
// delay each way, so every probe's round trip takes at least 20 ms.
const (
	relayDownMbps = 100
	relayUpMbps   = 20
	relayDelay    = 10 * time.Millisecond
	pingInterval  = time.Millisecond
)

// relayWork moves live traffic over loopback through the shaping relays:
// one iperf TCP download through a TCPRelay, then an open-loop 1 kHz
// UDP ping through a UDPRelay. One flow runs at a time.
type relayWork struct {
	o        options
	iperfSrv *iperf.Server
	pingSrv  *udpping.Server
	tcpRelay *netem.TCPRelay
	udpRelay *netem.UDPRelay
	// The last rep's outputs.
	iperfRes *iperf.Result
	ping     *udpping.Result
	pingWall time.Duration
	tcpCPU   time.Duration
	// reg holds the counters of the traced rep's instrumented relays.
	reg *obs.Registry
}

// startRelays starts the shaped TCP relay in front of the iperf server
// and the shaped UDP relay in front of the ping server.
func startRelays(seed int64, iperfAddr, pingAddr string) (*netem.TCPRelay, *netem.UDPRelay, error) {
	up := netem.ConstantShape(relayUpMbps, relayDelay, 0)
	down := netem.ConstantShape(relayDownMbps, relayDelay, 0)
	t, err := netem.NewTCPRelay("127.0.0.1:0", iperfAddr, up, down)
	if err != nil {
		return nil, nil, err
	}
	u, err := netem.NewUDPRelay("127.0.0.1:0", pingAddr, up, down, seed)
	if err != nil {
		t.Close()
		return nil, nil, err
	}
	return t, u, nil
}

func (r *relayWork) setup() error {
	var err error
	if r.iperfSrv, err = iperf.NewServer("127.0.0.1:0"); err != nil {
		return err
	}
	if r.pingSrv, err = udpping.NewServer("127.0.0.1:0"); err != nil {
		return err
	}
	if r.tcpRelay, r.udpRelay, err = startRelays(r.o.seed, r.iperfSrv.Addr().String(), r.pingSrv.Addr().String()); err != nil {
		return err
	}
	// One probe through the shaped path shows it is up.
	res, err := udpping.Run(context.Background(), udpping.Config{Addr: r.udpRelay.Addr().String(), Count: 1})
	if err != nil {
		return err
	}
	if res.Received != 1 {
		return fmt.Errorf("relay: set-up probe lost")
	}
	return nil
}

func (r *relayWork) close() {
	for _, c := range []interface{ Close() error }{r.tcpRelay, r.udpRelay, r.iperfSrv, r.pingSrv} {
		if c != nil {
			c.Close()
		}
	}
	r.tcpRelay, r.udpRelay, r.iperfSrv, r.pingSrv = nil, nil, nil, nil
}

func (r *relayWork) run(tr *tracer) error {
	ctx := context.Background()
	tcpRelay, udpRelay := r.tcpRelay, r.udpRelay
	r.reg = nil
	var root int
	if tr != nil {
		// The traced rep gets relays of its own: instrumentation cannot
		// be detached, and the untraced reps stay uninstrumented.
		t, u, err := startRelays(r.o.seed, r.iperfSrv.Addr().String(), r.pingSrv.Addr().String())
		if err != nil {
			return err
		}
		defer t.Close()
		defer u.Close()
		r.reg = obs.NewRegistry()
		t.Instrument(r.reg, nil)
		u.Instrument(r.reg, nil)
		tcpRelay, udpRelay = t, u
		root = tr.start(0, "relay.rep")
		defer tr.end(root, nil)
	}
	layer := func(name string, fn func() error) error {
		if tr == nil {
			return fn()
		}
		_, err := tr.layer(root, name, r.relayCounts, fn)
		return err
	}

	err := layer("iperf.tcp_download", func() (err error) {
		cpu0 := cpuTime()
		r.iperfRes, err = iperf.Run(ctx, iperf.ClientConfig{
			Addr: tcpRelay.Addr().String(), Proto: iperf.TCP, Dir: iperf.Download,
			Duration: r.o.size.iperfDur, Seed: r.o.seed,
		})
		r.tcpCPU = cpuTime() - cpu0
		return err
	})
	if err != nil {
		return err
	}
	if tr != nil {
		// Let the download's last bytes leave the relay before the
		// counters are compared.
		waitDrained(r.reg, "relay.tcp", tcpChunk)
	}
	return layer("udpping.run", func() (err error) {
		start := time.Now()
		r.ping, err = udpping.Run(ctx, udpping.Config{
			Addr: udpRelay.Addr().String(), Count: r.o.size.probes, Interval: pingInterval,
		})
		r.pingWall = time.Since(start)
		return err
	})
}

// relayCounts reads the traced rep's relay byte counters.
func (r *relayWork) relayCounts() map[string]int64 {
	c := map[string]int64{}
	for _, p := range []string{"relay.tcp.up", "relay.tcp.down", "relay.udp.up", "relay.udp.down"} {
		for _, k := range []string{"in_bytes", "out_bytes", "drop_bytes"} {
			c[p+"."+k] = r.reg.Counter(p + "." + k).Value()
		}
	}
	return c
}

// tcpChunk is the TCPRelay's pacing unit. The iperf client closes its
// download at a deadline, and the pump then discards the one chunk it
// was holding for the delay without counting it as a drop; so the TCP
// download direction may come up short by at most this much.
const tcpChunk = 8 << 10

// waitDrained waits up to two seconds for every byte that entered the
// relay's directions to be delivered or dropped.
func waitDrained(reg *obs.Registry, relay string, slack int64) {
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(conservation(reg, relay, slack)) == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// conservation checks that bytes in == bytes out + bytes dropped in both
// directions of a relay, up to slack bytes unaccounted in the download
// direction, and describes every direction where it fails.
func conservation(reg *obs.Registry, relay string, slack int64) []string {
	var bad []string
	for _, dir := range []string{"up", "down"} {
		p := relay + "." + dir
		in, out, drop := reg.Counter(p+".in_bytes").Value(), reg.Counter(p+".out_bytes").Value(), reg.Counter(p+".drop_bytes").Value()
		lost := in - out - drop
		if lost < 0 || lost > 0 && (dir == "up" || lost > slack) {
			bad = append(bad, fmt.Sprintf("%s: %d bytes in, %d out + %d dropped", p, in, out, drop))
		}
	}
	return bad
}

func (r *relayWork) finish(time.Duration) repOut {
	res, ping := r.iperfRes, r.ping
	out := repOut{
		attempted:   1 + int64(ping.Sent),
		failed:      int64(ping.Sent - ping.Received),
		goodputMbps: res.TotalMbps,
		latencies:   ping.RTTsMs(),
	}
	if res.Outcome != iperf.Complete {
		out.failed++
	}
	if res.TotalMbps <= 0 || res.TotalMbps > relayDownMbps*1.05 {
		out.problems = append(out.problems, fmt.Sprintf("iperf goodput %.3f Mbps outside (0, %d] Mbps", res.TotalMbps, relayDownMbps))
	}
	if len(out.latencies) > 0 {
		if lo := percentile(out.latencies, 0); lo < 2*relayDelay.Seconds()*1000 {
			out.problems = append(out.problems, fmt.Sprintf("probe RTT %.3f ms below the shaped %v", lo, 2*relayDelay))
		}
	}
	if r.reg == nil {
		return out
	}
	waitDrained(r.reg, "relay.udp", 0)
	out.problems = append(out.problems, conservation(r.reg, "relay.tcp", tcpChunk)...)
	out.problems = append(out.problems, conservation(r.reg, "relay.udp", 0)...)
	c := r.relayCounts()
	down := c["relay.tcp.down.out_bytes"] + c["relay.udp.down.out_bytes"]
	drops := r.reg.Counter("relay.tcp.up.drop_pkts").Value() + r.reg.Counter("relay.tcp.down.drop_pkts").Value() +
		r.reg.Counter("relay.udp.up.drop_pkts").Value() + r.reg.Counter("relay.udp.down.drop_pkts").Value()
	// The pinger waits one interval after each send, so its schedule
	// falls behind by whatever the run took beyond (probes-1) intervals
	// and the last probe's round trip.
	late := r.pingWall - time.Duration(r.o.size.probes-1)*pingInterval
	if n := len(ping.Probes); n > 0 {
		late -= ping.Probes[n-1].RTT
	}
	out.layers = map[string]float64{
		"netem.down_bytes":       float64(down),
		"netem.drops":            float64(drops),
		"netem.cpu_ms_per_mb":    r.tcpCPU.Seconds() * 1000 / (float64(c["relay.tcp.down.out_bytes"]) / 1e6),
		"netem.ping_gen_late_ms": late.Seconds() * 1000,
		"netem.rtt_p99_ms":       percentile(out.latencies, 99),
	}
	return out
}
