package core

import (
	"fmt"
	"time"

	"satcell/internal/channel"
	"satcell/internal/emu"
	"satcell/internal/mptcp"
	"satcell/internal/stats"
	"satcell/internal/tcp"
	"satcell/internal/trace"
)

// MultipathConfig tunes the §6 emulation pipeline.
type MultipathConfig struct {
	// WindowSeconds is the length of each replayed download (the paper
	// uses 5-minute tests). Default 300.
	WindowSeconds int
	// Windows is how many aligned trace windows to replay. Default 3.
	Windows int
	// TunedBuf / UntunedBuf are the connection receive buffers compared
	// by Fig. 10. Untuned defaults to 2 MB (OS default autotuning
	// reach); tuned defaults to 10x a 200 Mbps x 80 ms BDP (§6: "we
	// increase the buffer size to exceed 10x the link's BDP").
	TunedBuf   int
	UntunedBuf int
	// Scheduler defaults to BLEST (the kernel v5.19 default, §6).
	Scheduler func() mptcp.Scheduler
	// QueueBytes is the emulated bottleneck buffer per direction.
	QueueBytes int
}

func (c *MultipathConfig) defaults() {
	if c.WindowSeconds <= 0 {
		c.WindowSeconds = 300
	}
	if c.Windows <= 0 {
		c.Windows = 3
	}
	if c.TunedBuf <= 0 {
		c.TunedBuf = 20 << 20
	}
	if c.UntunedBuf <= 0 {
		c.UntunedBuf = 2 << 20
	}
	if c.Scheduler == nil {
		c.Scheduler = func() mptcp.Scheduler { return mptcp.NewBLEST() }
	}
	if c.QueueBytes <= 0 {
		// Starlink user terminals are deeply buffered (bufferbloat to
		// hundreds of ms is well documented); a deep queue also lets
		// the replay absorb the 15 s capacity reallocation steps.
		c.QueueBytes = 3 << 20 / 2
	}
}

// MultipathRun is the outcome of one replay window for one setup.
type MultipathRun struct {
	Label    string
	Mbps     float64
	Series   []float64 // per-second goodput
	Capacity float64   // mean combined path capacity over the window
}

// runSingleTCP replays one single-path TCP download over a trace window.
func runSingleTCP(tr *channel.Trace, dur time.Duration, queue int, seed int64) MultipathRun {
	eng := emu.NewEngine()
	dp := emu.NewDuplexPath(eng, tr, emu.PathConfig{Seed: seed, QueueBytes: queue})
	conn := tcp.NewDownload(eng, dp, 1, tcp.Config{})
	conn.Start()
	eng.RunUntil(dur)
	conn.Stop()
	return MultipathRun{
		Label:    tr.Network.String(),
		Mbps:     conn.MeanGoodputMbps(dur),
		Series:   conn.Goodput().Values(),
		Capacity: stats.Mean(tr.DownSeries()),
	}
}

// runMPTCP replays one multipath download over aligned trace windows.
func runMPTCP(traces []*channel.Trace, dur time.Duration, rcvBuf, queue int, sched mptcp.Scheduler, seed int64) MultipathRun {
	eng := emu.NewEngine()
	paths := make([]*emu.DuplexPath, len(traces))
	label := ""
	capacity := 0.0
	for i, tr := range traces {
		paths[i] = emu.NewDuplexPath(eng, tr, emu.PathConfig{Seed: seed + int64(i), QueueBytes: queue})
		if label != "" {
			label += "+"
		}
		label += tr.Network.String()
		capacity += stats.Mean(tr.DownSeries())
	}
	conn := mptcp.NewConn(eng, paths, 100, mptcp.Config{RcvBuf: rcvBuf, Scheduler: sched})
	conn.Start()
	eng.RunUntil(dur)
	conn.Stop()
	return MultipathRun{
		Label:    label,
		Mbps:     conn.MeanGoodputMbps(dur),
		Series:   conn.Goodput().Values(),
		Capacity: capacity,
	}
}

// alignedWindows extracts n aligned trace windows of the given length
// for the networks of interest, spread across the dataset's drives.
// Matching the paper's MpShell methodology (§6), the windows replay the
// *UDP capacity* traces: rate and latency vary, outages become zero
// delivery opportunities, but no random wire loss is injected — loss
// emerges from droptail queues, exactly as in Mahimahi.
func (a *Analyzer) alignedWindows(winDur time.Duration, n int) [][]*channel.Trace {
	var out [][]*channel.Trace
	need := []channel.NetworkID{channel.StarlinkMobility, channel.ATT, channel.Verizon}
	// The §6 replays pair Starlink Mobility with AT&T and Verizon; a
	// scenario that did not measure all three has no aligned windows and
	// the multipath figures degrade to their "no windows" note.
	for _, n := range need {
		if !hasNetwork(a.Networks(), n) {
			return nil
		}
	}
	var fallback [][]*channel.Trace
	for di := 0; di < len(a.DS.Drives) && len(out) < n; di++ {
		d := &a.DS.Drives[di]
		dur := time.Duration(len(d.Fixes)) * time.Second
		for off := time.Duration(0); off+winDur <= dur && len(out) < n; off += winDur + 60*time.Second {
			var ws []*channel.Trace
			for _, net := range need {
				full := d.Trace(net)
				ws = append(ws, replayTrace(full.Slice(off, off+winDur)))
			}
			aligned := trace.Align(ws...)
			// The paper's MPTCP experiments replay windows where both
			// network types are usable (its Fig. 11 shows healthy
			// single-path throughput); skip dead-urban windows.
			if windowUsable(aligned) {
				out = append(out, aligned)
			} else {
				fallback = append(fallback, aligned)
			}
		}
	}
	for len(out) < n && len(fallback) > 0 {
		out = append(out, fallback[0])
		fallback = fallback[1:]
	}
	return out
}

// windowUsable requires decent Starlink capacity and bounded outage on
// every path in the window.
func windowUsable(ws []*channel.Trace) bool {
	for i, tr := range ws {
		outage := 0
		for _, s := range tr.Samples {
			if s.Outage || s.DownMbps < 1 {
				outage++
			}
		}
		if len(tr.Samples) == 0 || float64(outage)/float64(len(tr.Samples)) > 0.2 {
			return false
		}
		if i == 0 {
			mean := stats.Mean(tr.DownSeries())
			// Keep the Starlink path in its typical band: too weak and
			// the window is an urban outage stretch; extreme highs are
			// unrepresentative single-user bursts.
			if mean < 50 || mean > 250 {
				return false
			}
		}
	}
	return true
}

// replayTrace converts a measured channel trace into its MpShell replay
// form: capacity and RTT preserved, random loss stripped.
func replayTrace(tr *channel.Trace) *channel.Trace {
	out := &channel.Trace{Network: tr.Network}
	lastRTT := 50 * time.Millisecond
	for _, s := range tr.Samples {
		s.LossDown, s.LossUp = 0, 0
		s.Burst = false
		if s.RTT == 0 {
			s.RTT = lastRTT // outage seconds keep the last known latency
		}
		lastRTT = s.RTT
		out.Samples = append(out.Samples, s)
	}
	return out
}

// Figure10 reproduces the single-path vs MPTCP comparison: 5-minute
// downloads over aligned Starlink/cellular traces, tuned vs untuned
// connection buffers.
func (a *Analyzer) Figure10(cfg MultipathConfig) *Figure {
	cfg.defaults()
	f := &Figure{
		ID: "fig10", Title: "Single-path TCP vs MPTCP download performance",
		Kind: BoxPlot, XLabel: "setup", YLabel: "throughput (Mbps)",
	}
	winDur := time.Duration(cfg.WindowSeconds) * time.Second
	windows := a.alignedWindows(winDur, cfg.Windows)
	if len(windows) == 0 {
		f.Notes = append(f.Notes, "no aligned windows available")
		return f
	}

	collect := map[string][]float64{}
	var utilSum, utilN float64
	var gainATT, gainVZ []float64
	var gainATTUntuned, gainVZUntuned []float64
	for wi, ws := range windows {
		mobTr, attTr, vzTr := ws[0], ws[1], ws[2]
		seed := a.Seed + int64(wi*100)
		att := runSingleTCP(attTr, winDur, cfg.QueueBytes, seed+1)
		vz := runSingleTCP(vzTr, winDur, cfg.QueueBytes, seed+2)
		mob := runSingleTCP(mobTr, winDur, cfg.QueueBytes, seed+3)
		mpATT := runMPTCP([]*channel.Trace{mobTr, attTr}, winDur, cfg.TunedBuf, cfg.QueueBytes, cfg.Scheduler(), seed+4)
		mpVZ := runMPTCP([]*channel.Trace{mobTr, vzTr}, winDur, cfg.TunedBuf, cfg.QueueBytes, cfg.Scheduler(), seed+6)
		mpATTu := runMPTCP([]*channel.Trace{mobTr, attTr}, winDur, cfg.UntunedBuf, cfg.QueueBytes, cfg.Scheduler(), seed+8)
		mpVZu := runMPTCP([]*channel.Trace{mobTr, vzTr}, winDur, cfg.UntunedBuf, cfg.QueueBytes, cfg.Scheduler(), seed+10)

		collect["ATT"] = append(collect["ATT"], att.Mbps)
		collect["VZ"] = append(collect["VZ"], vz.Mbps)
		collect["MOB"] = append(collect["MOB"], mob.Mbps)
		collect["MOB+ATT"] = append(collect["MOB+ATT"], mpATT.Mbps)
		collect["MOB+VZ"] = append(collect["MOB+VZ"], mpVZ.Mbps)
		collect["MOB+ATT-untuned"] = append(collect["MOB+ATT-untuned"], mpATTu.Mbps)
		collect["MOB+VZ-untuned"] = append(collect["MOB+VZ-untuned"], mpVZu.Mbps)

		if mpATT.Capacity > 0 {
			utilSum += mpATT.Mbps / mpATT.Capacity
			utilN++
		}
		if mpVZ.Capacity > 0 {
			utilSum += mpVZ.Mbps / mpVZ.Capacity
			utilN++
		}
		gainATT = append(gainATT, gainOverBest(mpATT.Mbps, att.Mbps, mob.Mbps))
		gainVZ = append(gainVZ, gainOverBest(mpVZ.Mbps, vz.Mbps, mob.Mbps))
		gainATTUntuned = append(gainATTUntuned, gainOverBest(mpATTu.Mbps, att.Mbps, mob.Mbps))
		gainVZUntuned = append(gainVZUntuned, gainOverBest(mpVZu.Mbps, vz.Mbps, mob.Mbps))
	}

	order := []string{"ATT", "VZ", "MOB", "MOB+ATT", "MOB+VZ", "MOB+ATT-untuned", "MOB+VZ-untuned"}
	for i, label := range order {
		xs := collect[label]
		box := stats.Box(xs)
		f.Series = append(f.Series, Series{
			Label: label,
			X:     []float64{float64(i)},
			Y:     []float64{box.Median},
		})
		f.addKPI("mean_"+label, stats.Mean(xs))
	}
	f.addKPI("gain_over_best_mob_att_pct", stats.Mean(gainATT)*100)
	f.addKPI("gain_over_best_mob_vz_pct", stats.Mean(gainVZ)*100)
	f.addKPI("gain_untuned_mob_att_pct", stats.Mean(gainATTUntuned)*100)
	f.addKPI("gain_untuned_mob_vz_pct", stats.Mean(gainVZUntuned)*100)
	if utilN > 0 {
		f.addKPI("bandwidth_utilization_pct", utilSum/utilN*100)
	}
	f.Notes = append(f.Notes, fmt.Sprintf("%d windows of %ds", len(windows), cfg.WindowSeconds))
	return f
}

// gainOverBest returns mp/(best single path) - 1.
func gainOverBest(mp float64, singles ...float64) float64 {
	best := 0.0
	for _, s := range singles {
		if s > best {
			best = s
		}
	}
	if best <= 0 {
		return 0
	}
	return mp/best - 1
}

// Figure11 reproduces the throughput-over-time traces: single-path TCP
// and MPTCP goodput per second over one representative window, for
// Mobility+AT&T (a) and Mobility+Verizon (b).
func (a *Analyzer) Figure11(cfg MultipathConfig) *Figure {
	cfg.defaults()
	f := &Figure{
		ID: "fig11", Title: "Throughput over time: single-path TCP vs MPTCP",
		Kind: TimeSeries, XLabel: "time (s)", YLabel: "throughput (Mbps)",
	}
	winDur := time.Duration(cfg.WindowSeconds) * time.Second
	windows := a.alignedWindows(winDur, 1)
	if len(windows) == 0 {
		f.Notes = append(f.Notes, "no aligned windows available")
		return f
	}
	ws := windows[0]
	mobTr, attTr, vzTr := ws[0], ws[1], ws[2]
	seed := a.Seed + 7000

	runs := []MultipathRun{
		runSingleTCP(mobTr, winDur, cfg.QueueBytes, seed+1),
		runSingleTCP(attTr, winDur, cfg.QueueBytes, seed+2),
		runMPTCP([]*channel.Trace{mobTr, attTr}, winDur, cfg.TunedBuf, cfg.QueueBytes, cfg.Scheduler(), seed+3),
		runSingleTCP(vzTr, winDur, cfg.QueueBytes, seed+5),
		runMPTCP([]*channel.Trace{mobTr, vzTr}, winDur, cfg.TunedBuf, cfg.QueueBytes, cfg.Scheduler(), seed+6),
	}
	labels := []string{"MOB(a)", "ATT(a)", "MPTCP(a)", "VZ(b)", "MPTCP(b)"}
	for i, r := range runs {
		s := Series{Label: labels[i]}
		for sec, v := range r.Series {
			s.X = append(s.X, float64(sec))
			s.Y = append(s.Y, v)
		}
		f.Series = append(f.Series, s)
		f.addKPI("mean_"+labels[i], r.Mbps)
	}
	f.addKPI("peak_mptcp_b", stats.Max(runs[4].Series))
	return f
}

// MultipathAblation compares MPTCP schedulers and coupled congestion
// control over the same aligned windows (the DESIGN.md ablations).
func (a *Analyzer) MultipathAblation(cfg MultipathConfig) *Figure {
	cfg.defaults()
	f := &Figure{
		ID: "ablation-mptcp", Title: "MPTCP scheduler and CC ablation",
		Kind: Bars, XLabel: "variant", YLabel: "mean throughput (Mbps)",
	}
	winDur := time.Duration(cfg.WindowSeconds) * time.Second
	windows := a.alignedWindows(winDur, cfg.Windows)
	if len(windows) == 0 {
		return f
	}
	variants := []struct {
		name  string
		sched func(eng *emu.Engine) mptcp.Scheduler
		coupl bool
		buf   int
	}{
		{"blest-tuned", func(*emu.Engine) mptcp.Scheduler { return mptcp.NewBLEST() }, false, cfg.TunedBuf},
		{"minrtt-tuned", func(*emu.Engine) mptcp.Scheduler { return mptcp.NewMinRTT() }, false, cfg.TunedBuf},
		{"rr-tuned", func(*emu.Engine) mptcp.Scheduler { return mptcp.NewRoundRobin() }, false, cfg.TunedBuf},
		{"redundant-tuned", func(*emu.Engine) mptcp.Scheduler { return mptcp.NewRedundant() }, false, cfg.TunedBuf},
		{"leoaware-tuned", func(eng *emu.Engine) mptcp.Scheduler { return mptcp.NewLEOAware(0, eng.Now) }, false, cfg.TunedBuf},
		{"blest-untuned", func(*emu.Engine) mptcp.Scheduler { return mptcp.NewBLEST() }, false, cfg.UntunedBuf},
		{"blest-lia", func(*emu.Engine) mptcp.Scheduler { return mptcp.NewBLEST() }, true, cfg.TunedBuf},
	}
	for vi, v := range variants {
		var sum float64
		for wi, ws := range windows {
			mobTr, attTr := ws[0], ws[1]
			eng := emu.NewEngine()
			paths := []*emu.DuplexPath{
				emu.NewDuplexPath(eng, mobTr, emu.PathConfig{Seed: a.Seed + int64(wi*10+1), QueueBytes: cfg.QueueBytes}),
				emu.NewDuplexPath(eng, attTr, emu.PathConfig{Seed: a.Seed + int64(wi*10+2), QueueBytes: cfg.QueueBytes}),
			}
			conn := mptcp.NewConn(eng, paths, 100, mptcp.Config{
				RcvBuf: v.buf, Scheduler: v.sched(eng), Coupled: v.coupl,
			})
			conn.Start()
			eng.RunUntil(winDur)
			conn.Stop()
			sum += conn.MeanGoodputMbps(winDur)
		}
		mean := sum / float64(len(windows))
		f.Series = append(f.Series, Series{Label: v.name, X: []float64{float64(vi)}, Y: []float64{mean}})
		f.addKPI(v.name, mean)
	}
	return f
}
