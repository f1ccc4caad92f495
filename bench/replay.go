package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"satcell/internal/channel"
	"satcell/internal/core"
	"satcell/internal/dataset"
	"satcell/internal/emu"
	"satcell/internal/faults"
	"satcell/internal/mptcp"
	"satcell/internal/netem"
	"satcell/internal/stats"
	"satcell/internal/tcp"
	"satcell/internal/vsession"
)

// fig10Setups are the seven fig10 replays of one window: three
// single-path TCP downloads, two tuned and two untuned MPTCP ones.
var fig10Setups = []string{"ATT", "VZ", "MOB", "MOB+ATT", "MOB+VZ", "MOB+ATT-untuned", "MOB+VZ-untuned"}

// replayWork replays packet-level transfers in virtual time: the fig10
// comparison over one aligned trace window, then one faulted two-path
// vsession.
type replayWork struct {
	o    options
	an   *core.Analyzer
	vcfg vsession.Config
	// The last rep's outputs.
	fig    *core.Figure
	vres   *vsession.Result
	layers map[string]float64
}

// replayDatasetSeed is the campaign seed of the dataset fig10 and the
// kernel probe replay, whatever the workload seed: the traffic a
// campaign's first usable window carries varies about threefold between
// seeds, and with it the replay's cost, which would swamp any change
// being measured. The workload seed drives the vsession's fault schedule.
const replayDatasetSeed = 42

func (r *replayWork) setup() error {
	ds := dataset.Generate(dataset.Config{Seed: replayDatasetSeed, Scale: r.o.size.replayScale, Workers: r.o.workers})
	r.an = core.NewAnalyzer(ds)
	dur := r.o.size.vsessionDur
	sched, err := faults.ParseSpec(fmt.Sprintf("auto=4/%s", dur), r.o.seed)
	if err != nil {
		return err
	}
	// A Starlink-like primary path that blacks out four times, and a
	// cellular secondary; the 20 MiB receive buffer is fig10's tuned one.
	r.vcfg = vsession.Config{
		Paths: []vsession.PathSpec{
			{
				Name:   "leo",
				Down:   netem.ConstantShape(150, 25*time.Millisecond, 0),
				Up:     netem.ConstantShape(15, 25*time.Millisecond, 0),
				Faults: &sched,
			},
			{
				Name: "cell",
				Down: netem.ConstantShape(60, 20*time.Millisecond, 0),
				Up:   netem.ConstantShape(10, 20*time.Millisecond, 0),
			},
		},
		Duration: dur,
		Seed:     r.o.seed,
		RcvBuf:   20 << 20,
	}
	return nil
}

func (r *replayWork) close() { r.an = nil }

func (r *replayWork) run(tr *tracer) error {
	mp := core.MultipathConfig{WindowSeconds: r.o.size.fig10Window, Windows: 1}
	r.fig, r.vres, r.layers = nil, nil, nil
	if tr == nil {
		r.fig = r.an.Figure10(mp)
		var err error
		r.vres, err = vsession.Run(r.vcfg)
		return err
	}
	root := tr.start(0, "replay.rep")
	defer tr.end(root, nil)
	fig10, _ := tr.layer(root, "core.fig10", nil, func() error {
		r.fig = r.an.Figure10(mp)
		return nil
	})
	vs, err := tr.layer(root, "vsession.run", nil, func() (err error) {
		r.vres, err = vsession.Run(r.vcfg)
		return err
	})
	r.layers = map[string]float64{
		"core.fig10_s":        fig10,
		"vsession.run_s":      vs,
		"vsession.vsec_per_s": r.vcfg.Duration.Seconds() / vs,
	}
	return err
}

func (r *replayWork) finish(time.Duration) repOut {
	sum := sha256.Sum256([]byte(r.fig.CSV()))
	out := repOut{
		attempted: int64(len(fig10Setups) + 1),
		digests:   map[string]string{"fig10": hex.EncodeToString(sum[:]), "vsession": r.vres.Digest},
		layers:    r.layers,
	}
	if len(r.fig.Series) != len(fig10Setups) {
		out.problems = append(out.problems, fmt.Sprintf("fig10 has %d series, want %d (notes: %v)",
			len(r.fig.Series), len(fig10Setups), r.fig.Notes))
	}
	// Each fig10 KPI mean_<setup> is a mean goodput over the window.
	for _, s := range fig10Setups {
		out.mbits += r.fig.KPI("mean_"+s) * float64(r.o.size.fig10Window)
	}
	out.mbits += float64(r.vres.Bytes) * 8 / 1e6
	return out
}

// probe drives the emulator and the simulated transports directly over
// one replayed Starlink Mobility window (and the AT&T window of the same
// drive and time): one single-path TCP download and one tuned MPTCP
// download, counting what the emulator and the transports did.
func (r *replayWork) probe(tr *tracer) (map[string]float64, error) {
	dur := r.o.size.probeWindow
	mob, att := probeWindows(r.an.DS, dur)
	root := tr.start(0, "kernel.probe")
	var pkts, drops int64
	var single tcp.Stats
	var subRetrans int64
	countLinks := func(dps ...*emu.DuplexPath) {
		for _, dp := range dps {
			for _, l := range []*emu.Link{dp.Down, dp.Up} {
				st := l.Stats()
				pkts += st.Delivered
				drops += st.QueueDrops
			}
		}
	}
	queue := 3 << 20 / 2 // fig10's bottleneck buffer
	tr.layer(root, "tcp.download", nil, func() error {
		eng := emu.NewEngine()
		dp := emu.NewDuplexPath(eng, mob, emu.PathConfig{Seed: r.o.seed, QueueBytes: queue})
		c := tcp.NewDownload(eng, dp, 1, tcp.Config{})
		c.Start()
		eng.RunUntil(dur)
		c.Stop()
		single = c.Stats()
		countLinks(dp)
		return nil
	})
	tr.layer(root, "mptcp.download", nil, func() error {
		eng := emu.NewEngine()
		paths := []*emu.DuplexPath{
			emu.NewDuplexPath(eng, mob, emu.PathConfig{Seed: r.o.seed + 1, QueueBytes: queue}),
			emu.NewDuplexPath(eng, att, emu.PathConfig{Seed: r.o.seed + 2, QueueBytes: queue}),
		}
		c := mptcp.NewConn(eng, paths, 100, mptcp.Config{RcvBuf: 20 << 20, Scheduler: mptcp.NewBLEST()})
		c.Start()
		eng.RunUntil(dur)
		c.Stop()
		for _, sf := range c.Subflows() {
			subRetrans += sf.Stats().Retransmits
		}
		countLinks(paths...)
		return nil
	})
	wall := tr.end(root, map[string]int64{"pkts": pkts, "queue_drops": drops})
	return map[string]float64{
		"emu.pkts":                  float64(pkts),
		"emu.pkts_per_s":            float64(pkts) / wall,
		"emu.queue_drops":           float64(drops),
		"tcp.segments":              float64(single.SegmentsSent),
		"tcp.retransmits":           float64(single.Retransmits),
		"tcp.rtos":                  float64(single.RTOs),
		"mptcp.subflow_retransmits": float64(subRetrans),
	}, nil
}

// probeWindows returns the first window of the given length in which
// Starlink Mobility is usable (at most 10% outage, at least 50 Mbps
// mean), with the AT&T window of the same drive and time, both in their
// replay form: random loss stripped, outage seconds keeping the last
// RTT. Without a usable window it falls back to the first drive's
// opening window.
func probeWindows(ds *dataset.Dataset, dur time.Duration) (mob, att *channel.Trace) {
	for _, d := range ds.Drives {
		full := d.Trace(channel.StarlinkMobility)
		for off := time.Duration(0); off+dur <= full.Duration(); off += dur {
			w := full.Slice(off, off+dur)
			outage := 0
			for _, s := range w.Samples {
				if s.Outage {
					outage++
				}
			}
			if len(w.Samples) == 0 || float64(outage)/float64(len(w.Samples)) > 0.1 || stats.Mean(w.DownSeries()) < 50 {
				continue
			}
			return replayForm(w), replayForm(d.Trace(channel.ATT).Slice(off, off+dur))
		}
	}
	d := ds.Drives[0]
	return replayForm(d.Trace(channel.StarlinkMobility).Slice(0, dur)), replayForm(d.Trace(channel.ATT).Slice(0, dur))
}

func replayForm(tr *channel.Trace) *channel.Trace {
	out := &channel.Trace{Network: tr.Network}
	last := 50 * time.Millisecond
	for _, s := range tr.Samples {
		s.LossDown, s.LossUp, s.Burst = 0, 0, false
		if s.RTT == 0 {
			s.RTT = last
		}
		last = s.RTT
		out.Samples = append(out.Samples, s)
	}
	return out
}
