// Livetools: the real-socket toolchain end to end, entirely on
// loopback. An iPerf server and a UDP-Ping server run behind an
// mpshell-style relay that replays an emulated Starlink trace; the
// real client tools then measure the emulated network — exactly how a
// field deployment of this toolkit operates, minus the dish.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"satcell"
	"satcell/internal/faults"
	"satcell/internal/meas/iperf"
	"satcell/internal/meas/udpping"
	"satcell/internal/netem"
	"satcell/internal/stats"
)

func main() {
	// 1. Synthesise 90 seconds of Starlink Mobility channel conditions.
	world := satcell.NewWorld(99)
	ds := world.GenerateDataset(satcell.DatasetOptions{Scale: 0.02})
	tr := ds.Drives[0].Trace(satcell.StarlinkMobility).Slice(0, 90*time.Second)
	fmt.Printf("replaying %s trace: mean capacity %.0f Mbps down / %.1f up\n",
		tr.Network, stats.Mean(tr.DownSeries()), stats.Mean(tr.UpSeries()))

	// 2. Real servers on loopback.
	iperfSrv, err := iperf.NewServer("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer iperfSrv.Close()
	pingSrv, err := udpping.NewServer("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer pingSrv.Close()

	// 3. MpShell-style relays replaying the trace in wall-clock time.
	iperfRelay, err := netem.NewUDPRelay("127.0.0.1:0", iperfSrv.Addr().String(),
		netem.FromTrace(tr, true), netem.FromTrace(tr, false), 1)
	if err != nil {
		log.Fatal(err)
	}
	defer iperfRelay.Close()
	pingRelay, err := netem.NewUDPRelay("127.0.0.1:0", pingSrv.Addr().String(),
		netem.FromTrace(tr, true), netem.FromTrace(tr, false), 2)
	if err != nil {
		log.Fatal(err)
	}
	defer pingRelay.Close()

	// 4. The real UDP-Ping client through the emulated network.
	ping, err := udpping.Run(context.Background(), udpping.Config{
		Addr: pingRelay.Addr().String(), Count: 15, Interval: 200 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	rtts := stats.Summarize(ping.RTTsMs())
	fmt.Printf("udp-ping : %d/%d answered, median RTT %.1f ms (p90 %.1f)\n",
		ping.Received, ping.Sent, rtts.Median, rtts.P90)

	// 5. The real iPerf UDP download through the emulated network.
	res, err := iperf.Run(context.Background(), iperf.ClientConfig{
		Addr:     iperfRelay.Addr().String(),
		Proto:    iperf.UDP,
		Dir:      iperf.Download,
		Duration: 5 * time.Second,
		RateMbps: 300, // offer more than the link carries: measure capacity
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("iperf-udp: %.1f Mbps down, %.1f%% loss, jitter %.2f ms\n",
		res.TotalMbps, res.LossRate*100, res.JitterMs)

	// 6. Outage scenario: the same tools through a relay scripted with a
	// deterministic fault schedule — three seeded blackout windows over
	// 6 s, in mpshell's -faults grammar, like the reallocation gaps and
	// obstructions of the field campaign. The schedule digest pins the
	// scenario: rerunning with the same seed replays the exact same
	// outage script.
	sched, err := faults.ParseSpec("auto=3/6s", 99)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noutage scenario: %s\n  digest %s\n", sched.String(), sched.Digest()[:16])
	inj := faults.NewInjector(sched)
	faultRelay, err := netem.NewUDPRelayFaulty("127.0.0.1:0", iperfSrv.Addr().String(),
		netem.ConstantShape(80, 25*time.Millisecond, 0),
		netem.ConstantShape(80, 25*time.Millisecond, 0), 3, inj)
	if err != nil {
		log.Fatal(err)
	}
	defer faultRelay.Close()
	out, err := iperf.Run(context.Background(), iperf.ClientConfig{
		Addr:     faultRelay.Addr().String(),
		Proto:    iperf.UDP,
		Dir:      iperf.Download,
		Duration: 5 * time.Second,
		RateMbps: 40,
	})
	if err != nil {
		log.Fatal(err)
	}
	st := inj.Stats()
	fmt.Printf("iperf-udp under faults: %.1f Mbps, %.1f%% loss (outcome %s)\n",
		out.TotalMbps, out.LossRate*100, out.Outcome)
	fmt.Printf("  schedule: %.1f%% of horizon dark; injector swallowed %d datagrams\n",
		100*sched.BlackoutFraction(), st.BlackoutDrops)

	fmt.Println("\n(all sockets real; the 'Starlink dish' is a trace replay)")
}
