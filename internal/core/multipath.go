package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"satcell/internal/channel"
	"satcell/internal/mptcp"
	"satcell/internal/stats"
	"satcell/internal/trace"
	"satcell/internal/vsession"
)

// MultipathConfig tunes the §6 emulation pipeline.
type MultipathConfig struct {
	// WindowSeconds is the length of each replayed download (the paper
	// uses 5-minute tests). Default 300.
	WindowSeconds int
	// Windows is how many aligned trace windows to replay. Default 3.
	Windows int
	// Workers bounds the goroutines running the replays; 0 means one
	// per core (GOMAXPROCS). Every figure is byte-identical for any
	// worker count.
	Workers int
}

func (c *MultipathConfig) defaults() {
	if c.WindowSeconds <= 0 {
		c.WindowSeconds = 300
	}
	if c.Windows <= 0 {
		c.Windows = 3
	}
}

const (
	// tunedBuf and untunedBuf are the connection receive buffers
	// compared by Fig. 10: untuned is 2 MB (OS default autotuning
	// reach); tuned is 10x a 200 Mbps x 80 ms BDP (§6: "we increase the
	// buffer size to exceed 10x the link's BDP").
	tunedBuf   = 20 << 20
	untunedBuf = 2 << 20
	// replayQueue is the emulated bottleneck buffer per direction.
	// Starlink user terminals are deeply buffered (bufferbloat to
	// hundreds of ms is well documented); a deep queue also lets the
	// replay absorb the 15 s capacity reallocation steps.
	replayQueue = 3 << 20 / 2
)

// noWindows is the note a multipath figure carries when the dataset has
// no aligned MOB/ATT/VZ windows to replay.
const noWindows = "no aligned windows available"

// replaySetup is one §6 replay session shape. paths indexes a window's
// aligned MOB, ATT, VZ traces; buf is the connection receive buffer (0
// is the transport default); sched builds the MPTCP scheduler, nil
// meaning BLEST, the kernel v5.19 default (§6); coupled turns on LIA.
type replaySetup struct {
	label   string
	paths   []int
	buf     int
	sched   func() mptcp.Scheduler
	coupled bool
}

// config is s's virtual session over one aligned window: a download over
// the window's replay traces (single-path TCP over one, MPTCP over
// several) behind the deep bottleneck buffer, with no RTT prober on the
// paths. The scheduler is built fresh, as it keeps per-connection state.
func (s replaySetup) config(seed int64, dur time.Duration, window []*channel.Trace) vsession.Config {
	cfg := vsession.Config{
		Duration:  dur,
		Seed:      seed,
		RcvBuf:    s.buf,
		Scheduler: mptcp.NewBLEST(),
		Coupled:   s.coupled,
		NoProbe:   true,
	}
	if s.sched != nil {
		cfg.Scheduler = s.sched()
	}
	for _, p := range s.paths {
		tr := window[p]
		cfg.Paths = append(cfg.Paths, vsession.PathSpec{Name: tr.Network.String(), Trace: tr, QueueBytes: replayQueue})
	}
	return cfg
}

// fig10Setups are fig10's boxes, in plot order.
var fig10Setups = []replaySetup{
	{label: "ATT", paths: []int{1}},
	{label: "VZ", paths: []int{2}},
	{label: "MOB", paths: []int{0}},
	{label: "MOB+ATT", paths: []int{0, 1}, buf: tunedBuf},
	{label: "MOB+VZ", paths: []int{0, 2}, buf: tunedBuf},
	{label: "MOB+ATT-untuned", paths: []int{0, 1}, buf: untunedBuf},
	{label: "MOB+VZ-untuned", paths: []int{0, 2}, buf: untunedBuf},
}

// fig11Series are fig11's series, in plot order, each the index of the
// fig10 setup it plots over the first window. They plot fig10's first
// five setups, so Figure11 alone replays only those.
var fig11Series = []struct {
	label string
	setup int
}{
	{"MOB(a)", 2}, {"ATT(a)", 0}, {"MPTCP(a)", 3}, {"VZ(b)", 1}, {"MPTCP(b)", 4},
}

// ablationSetups are the MPTCP ablation's bars over MOB+ATT: blest-tuned
// and blest-untuned are fig10's MOB+ATT and MOB+ATT-untuned sessions.
var ablationSetups = []replaySetup{
	{label: "blest-tuned", paths: []int{0, 1}, buf: tunedBuf},
	{label: "minrtt-tuned", paths: []int{0, 1}, buf: tunedBuf, sched: func() mptcp.Scheduler { return mptcp.NewMinRTT() }},
	{label: "rr-tuned", paths: []int{0, 1}, buf: tunedBuf, sched: func() mptcp.Scheduler { return mptcp.NewRoundRobin() }},
	{label: "redundant-tuned", paths: []int{0, 1}, buf: tunedBuf, sched: func() mptcp.Scheduler { return mptcp.NewRedundant() }},
	{label: "leoaware-tuned", paths: []int{0, 1}, buf: tunedBuf, sched: func() mptcp.Scheduler { return mptcp.NewLEOAware(0) }},
	{label: "blest-untuned", paths: []int{0, 1}, buf: untunedBuf},
	{label: "blest-lia", paths: []int{0, 1}, buf: tunedBuf, coupled: true},
}

// replaySetups replays every setup over each of n aligned windows in one
// pool and returns the windows and the results indexed [window][setup],
// each session's key.
func (a *Analyzer) replaySetups(cfg MultipathConfig, n int, setups []replaySetup) ([][]*channel.Trace, [][]*vsession.Result) {
	dur := time.Duration(cfg.WindowSeconds) * time.Second
	windows := a.alignedWindows(dur, n)
	var cfgs []vsession.Config
	for _, ws := range windows {
		for _, s := range setups {
			cfgs = append(cfgs, s.config(a.DS.Seed, dur, ws))
		}
	}
	flat := replayAll(cfgs, cfg.Workers)
	results := make([][]*vsession.Result, len(windows))
	for w := range results {
		results[w] = flat[w*len(setups) : (w+1)*len(setups)]
	}
	return windows, results
}

// replayAll runs cfgs on workers goroutines (0 means GOMAXPROCS) and
// returns each result at its config's index, so callers fold in config
// order and output does not depend on the worker count. Multi-path
// configs, the costly ones, are dispatched first so none starts last.
// A replay's panic is raised again on the caller, naming the config,
// once the pool drains.
func replayAll(cfgs []vsession.Config, workers int) []*vsession.Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	order := make([]int, len(cfgs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(i, j int) int { return len(cfgs[j].Paths) - len(cfgs[i].Paths) })
	res := make([]*vsession.Result, len(cfgs))
	panics := make([]any, len(cfgs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, len(cfgs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < len(cfgs); k = int(next.Add(1) - 1) {
				i := order[k]
				func() {
					defer func() { panics[i] = recover() }()
					var err error
					if res[i], err = vsession.Run(cfgs[i]); err != nil {
						panic(err) // replaySetup.config builds only valid sessions
					}
				}()
			}
		}()
	}
	wg.Wait()
	for i, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("core: replay config %d: panic: %v", i, p))
		}
	}
	return res
}

// goodputSeries returns a replay's per-second goodput as fig11 plots
// it: the series ends with the last second that delivered data (or runs
// the full window when data arrived at its final instant), and has at
// least one point.
func goodputSeries(res *vsession.Result) []float64 {
	ys := make([]float64, len(res.Seconds))
	n := 1
	var rows int64
	for i, s := range res.Seconds {
		ys[i] = s.Mbps
		rows += s.Bytes
		if s.Bytes > 0 {
			n = i + 1
		}
	}
	if rows < res.Bytes {
		n = len(ys)
	}
	return ys[:n]
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
	for _, net := range need {
		if !hasNetwork(a.DS.MeasuredNetworks(), net) {
			return nil
		}
	}
	var fallback [][]*channel.Trace
	for di := 0; di < len(a.DS.Drives) && len(out) < n; di++ {
		d := &a.DS.Drives[di]
		dur := time.Duration(len(d.Fixes)) * time.Second
		// Drive.Trace is pure, so each drive's traces are built once
		// and sliced for every window.
		full := make([]*channel.Trace, len(need))
		for i, net := range need {
			full[i] = d.Trace(net)
		}
		for off := time.Duration(0); off+winDur <= dur && len(out) < n; off += winDur + 60*time.Second {
			var ws []*channel.Trace
			for _, tr := range full {
				ws = append(ws, trace.Replay(tr.Slice(off, off+winDur)))
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

// Figure10 reproduces the single-path vs MPTCP comparison: 5-minute
// downloads over aligned Starlink/cellular traces, tuned vs untuned
// connection buffers.
func (a *Analyzer) Figure10(cfg MultipathConfig) *Figure {
	cfg.defaults()
	windows, results := a.replaySetups(cfg, cfg.Windows, fig10Setups)
	return figure10(cfg, windows, results)
}

// figure10 folds fig10Setups' results over windows into the figure.
func figure10(cfg MultipathConfig, windows [][]*channel.Trace, results [][]*vsession.Result) *Figure {
	f := &Figure{
		ID: "fig10", Title: "Single-path TCP vs MPTCP download performance",
		Kind: BoxPlot, XLabel: "setup", YLabel: "throughput (Mbps)",
	}
	if len(windows) == 0 {
		f.Notes = append(f.Notes, noWindows)
		return f
	}
	// Each gain compares a multipath setup with the better of its paths.
	gains := []struct{ kpi, mp, cell string }{
		{"gain_over_best_mob_att_pct", "MOB+ATT", "ATT"},
		{"gain_over_best_mob_vz_pct", "MOB+VZ", "VZ"},
		{"gain_untuned_mob_att_pct", "MOB+ATT-untuned", "ATT"},
		{"gain_untuned_mob_vz_pct", "MOB+VZ-untuned", "VZ"},
	}
	collect := map[string][]float64{}
	gainVals := make([][]float64, len(gains))
	var utilSum, utilN float64
	for wi, ws := range windows {
		m := map[string]float64{}
		for si, s := range fig10Setups {
			m[s.label] = results[wi][si].MeanMbps
			collect[s.label] = append(collect[s.label], m[s.label])
		}
		mobCap := stats.Mean(ws[0].DownSeries())
		for i, mp := range []string{"MOB+ATT", "MOB+VZ"} {
			if capacity := mobCap + stats.Mean(ws[1+i].DownSeries()); capacity > 0 {
				utilSum += m[mp] / capacity
				utilN++
			}
		}
		for i, g := range gains {
			gainVals[i] = append(gainVals[i], gainOverBest(m[g.mp], m[g.cell], m["MOB"]))
		}
	}

	for i, s := range fig10Setups {
		xs := collect[s.label]
		box := stats.Box(xs)
		f.Series = append(f.Series, Series{
			Label: s.label,
			X:     []float64{float64(i)},
			Y:     []float64{box.Median},
		})
		f.addKPI("mean_"+s.label, stats.Mean(xs))
	}
	for i, g := range gains {
		f.addKPI(g.kpi, stats.Mean(gainVals[i])*100)
	}
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
// Mobility+AT&T (a) and Mobility+Verizon (b). It replays only the five
// fig10 setups it plots.
func (a *Analyzer) Figure11(cfg MultipathConfig) *Figure {
	cfg.defaults()
	_, results := a.replaySetups(cfg, 1, fig10Setups[:len(fig11Series)])
	return figure11(results)
}

// figure11 folds the first window of fig10Setups' results into the
// figure. alignedWindows(d, 1)[0] is always alignedWindows(d, n)[0], so
// fig10's replays serve fig11 too.
func figure11(results [][]*vsession.Result) *Figure {
	f := &Figure{
		ID: "fig11", Title: "Throughput over time: single-path TCP vs MPTCP",
		Kind: TimeSeries, XLabel: "time (s)", YLabel: "throughput (Mbps)",
	}
	if len(results) == 0 {
		f.Notes = append(f.Notes, noWindows)
		return f
	}
	for _, fs := range fig11Series {
		res := results[0][fs.setup]
		s := Series{Label: fs.label}
		for sec, v := range goodputSeries(res) {
			s.X = append(s.X, float64(sec))
			s.Y = append(s.Y, v)
		}
		f.Series = append(f.Series, s)
		f.addKPI("mean_"+fs.label, res.MeanMbps)
	}
	f.addKPI("peak_mptcp_b", stats.Max(f.Series[4].Y))
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
	windows, results := a.replaySetups(cfg, cfg.Windows, ablationSetups)
	if len(windows) == 0 {
		f.Notes = append(f.Notes, noWindows)
		return f
	}
	for si, s := range ablationSetups {
		sum := 0.0
		for _, rs := range results {
			sum += rs[si].MeanMbps
		}
		mean := sum / float64(len(windows))
		f.Series = append(f.Series, Series{Label: s.label, X: []float64{float64(si)}, Y: []float64{mean}})
		f.addKPI(s.label, mean)
	}
	return f
}
