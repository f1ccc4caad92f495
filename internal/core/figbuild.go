package core

import (
	"fmt"
	"sort"

	"satcell/internal/channel"
	"satcell/internal/dataset"
	"satcell/internal/geo"
	"satcell/internal/leo"
	"satcell/internal/stats"
)

// This file holds the builders of the aggregate figures, which render
// from a StreamAnalysis's merged state. Every non-trivially-associative
// reduction goes through stats.Sketch — a canonical mergeable
// representation for which the same multiset of samples produces
// bit-identical statistics no matter how the input was partitioned — so
// every figure renders byte-identically for every worker count.

// timelineData is the Figure 1 input: the campaign's longest drive and
// its per-network downlink time series.
type timelineData struct {
	Drive        int
	Route, State string
	Seconds      int
	X, Y         map[channel.NetworkID][]float64
}

// betterThan orders timeline candidates: most seconds wins, ties go to
// the lowest drive index (the first maximum in drive order).
func (t *timelineData) betterThan(o *timelineData) bool {
	if o == nil {
		return true
	}
	if t.Seconds != o.Seconds {
		return t.Seconds > o.Seconds
	}
	return t.Drive < o.Drive
}

// fluidKey identifies one (network, parallelism) fluid-TCP bucket.
type fluidKey struct {
	net   channel.NetworkID
	flows int
}

// netArea identifies one (network, area type) sample bucket.
type netArea struct {
	net  channel.NetworkID
	area geo.AreaType
}

// fluidFlowCounts are the parallelism variants Figure 7 compares, and
// fluidKinds the test windows it evaluates them over.
var (
	fluidFlowCounts = []int{1, 4, 8}
	fluidKinds      = []dataset.Kind{dataset.TCPDown, dataset.TCPDown4P, dataset.TCPDown8P}
)

// perSecondKinds are the only test kinds whose per-second series any
// figure queries; accumulators keep sketches for exactly these.
var perSecondKinds = []dataset.Kind{dataset.UDPDown, dataset.UDPUp, dataset.TCPDown}

// retransKinds are the test kinds Figure 5 reads retransmission rates
// from.
var retransKinds = []dataset.Kind{dataset.TCPDown, dataset.TCPUp}

// pooledSketch merges the given sketches (nil entries are empty) into a
// fresh one.
func pooledSketch(parts ...*stats.Sketch) *stats.Sketch {
	out := stats.NewSketch()
	for _, p := range parts {
		out.Merge(p)
	}
	return out
}

// sketchSeries renders a sketch as a 101-point CDF series.
func sketchSeries(label string, s *stats.Sketch) Series {
	xs, ys := s.Points(101)
	return Series{Label: label, X: xs, Y: ys}
}

// hasNetwork reports membership of n in networks.
func hasNetwork(networks []channel.NetworkID, n channel.NetworkID) bool {
	for _, m := range networks {
		if m == n {
			return true
		}
	}
	return false
}

// orderPreferredNetworks returns networks with the preferred ids (those
// present) first and every remaining network in campaign order after
// them.
func orderPreferredNetworks(networks []channel.NetworkID, preferred ...channel.NetworkID) []channel.NetworkID {
	var out []channel.NetworkID
	taken := make(map[channel.NetworkID]bool, len(preferred))
	for _, n := range preferred {
		if hasNetwork(networks, n) {
			out = append(out, n)
			taken[n] = true
		}
	}
	for _, n := range networks {
		if !taken[n] {
			out = append(out, n)
		}
	}
	return out
}

// figure1Networks picks the motivation timeline's series: the paper's
// four (MOB and the carriers) when present, every measured network for
// scenarios that share none of them.
func figure1Networks(networks []channel.NetworkID) []channel.NetworkID {
	var out []channel.NetworkID
	for _, n := range []channel.NetworkID{channel.StarlinkMobility, channel.Verizon, channel.TMobile, channel.ATT} {
		if hasNetwork(networks, n) {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		return networks
	}
	return out
}

func buildFigure1(sa *StreamAnalysis) *Figure {
	f := &Figure{
		ID: "fig1", Title: "Download throughput of different networks over one drive",
		Kind: TimeSeries, XLabel: "time (s)", YLabel: "throughput (Mbps)",
	}
	tl := sa.p.timeline
	if tl == nil {
		tl = &timelineData{}
	}
	for _, n := range figure1Networks(sa.networks()) {
		s := Series{Label: n.String(), X: tl.X[n], Y: tl.Y[n]}
		f.Series = append(f.Series, s)
		f.addKPI("mean_"+n.String(), stats.Mean(s.Y))
	}
	f.Notes = append(f.Notes, fmt.Sprintf("drive %s (%s), %d s", tl.Route, tl.State, tl.Seconds))
	return f
}

func buildFigure3a(sa *StreamAnalysis) *Figure {
	f := &Figure{
		ID: "fig3a", Title: "TCP vs UDP downlink throughput CDFs",
		Kind: CDF, XLabel: "throughput (Mbps)", YLabel: "CDF",
	}
	perSec := sa.p.perSec
	mobTCP := pooledSketch(perSec[bucketKey{channel.StarlinkMobility, dataset.TCPDown}])
	mobUDP := pooledSketch(perSec[bucketKey{channel.StarlinkMobility, dataset.UDPDown}])
	cellTCP, cellUDP := stats.NewSketch(), stats.NewSketch()
	for _, n := range sa.cellulars() {
		cellTCP.Merge(perSec[bucketKey{n, dataset.TCPDown}])
		cellUDP.Merge(perSec[bucketKey{n, dataset.UDPDown}])
	}
	f.Series = []Series{
		sketchSeries("MOB-TCP", mobTCP),
		sketchSeries("Cellular-TCP", cellTCP),
		sketchSeries("MOB-UDP", mobUDP),
		sketchSeries("Cellular-UDP", cellUDP),
	}
	f.addKPI("mob_udp_mean_mbps", mobUDP.Mean())
	f.addKPI("mob_tcp_mean_mbps", mobTCP.Mean())
	f.addKPI("mob_udp_tcp_ratio", safeRatio(mobUDP.Mean(), mobTCP.Mean()))
	f.addKPI("cell_udp_mean_mbps", cellUDP.Mean())
	f.addKPI("cell_tcp_mean_mbps", cellTCP.Mean())
	f.addKPI("cell_udp_tcp_ratio", safeRatio(cellUDP.Mean(), cellTCP.Mean()))
	return f
}

func buildFigure3b(sa *StreamAnalysis) *Figure {
	f := &Figure{
		ID: "fig3b", Title: "Roam vs Mobility UDP downlink throughput CDFs",
		Kind: CDF, XLabel: "throughput (Mbps)", YLabel: "CDF",
	}
	rm := pooledSketch(sa.p.perSec[bucketKey{channel.StarlinkRoam, dataset.UDPDown}])
	mob := pooledSketch(sa.p.perSec[bucketKey{channel.StarlinkMobility, dataset.UDPDown}])
	f.Series = []Series{sketchSeries("RM", rm), sketchSeries("MOB", mob)}
	f.addKPI("mob_median_mbps", mob.Median())
	f.addKPI("mob_mean_mbps", mob.Mean())
	f.addKPI("rm_median_mbps", rm.Median())
	f.addKPI("rm_mean_mbps", rm.Mean())
	f.addKPI("rm_p75_mbps", rm.Quantile(0.75))
	return f
}

func buildFigure3c(sa *StreamAnalysis) *Figure {
	f := &Figure{
		ID: "fig3c", Title: "Starlink uplink vs downlink UDP throughput CDFs",
		Kind: CDF, XLabel: "throughput (Mbps)", YLabel: "CDF",
	}
	down := pooledSketch(sa.p.perSec[bucketKey{channel.StarlinkMobility, dataset.UDPDown}])
	up := pooledSketch(sa.p.perSec[bucketKey{channel.StarlinkMobility, dataset.UDPUp}])
	f.Series = []Series{sketchSeries("Uplink", up), sketchSeries("Downlink", down)}
	f.addKPI("down_mean_mbps", down.Mean())
	f.addKPI("up_mean_mbps", up.Mean())
	f.addKPI("down_up_ratio", safeRatio(down.Mean(), up.Mean()))
	return f
}

func buildFigure4(sa *StreamAnalysis) *Figure {
	f := &Figure{
		ID: "fig4", Title: "UDP-Ping round-trip latency CDFs",
		Kind: CDF, XLabel: "RTT (ms)", YLabel: "CDF",
	}
	for _, n := range sa.networks() {
		c := pooledSketch(sa.p.rtt[n])
		f.Series = append(f.Series, sketchSeries(n.String(), c))
		f.addKPI("median_ms_"+n.String(), c.Median())
		f.addKPI("p90_ms_"+n.String(), c.Quantile(0.9))
	}
	return f
}

func buildFigure5(sa *StreamAnalysis) *Figure {
	f := &Figure{
		ID: "fig5", Title: "TCP retransmission rate per network",
		Kind: Bars, XLabel: "network", YLabel: "retransmission fraction",
	}
	downS := Series{Label: "downlink"}
	upS := Series{Label: "uplink"}
	for i, n := range sa.networks() {
		down := pooledSketch(sa.p.retrans[bucketKey{n, dataset.TCPDown}]).Mean()
		up := pooledSketch(sa.p.retrans[bucketKey{n, dataset.TCPUp}]).Mean()
		downS.X = append(downS.X, float64(i))
		downS.Y = append(downS.Y, down)
		upS.X = append(upS.X, float64(i))
		upS.Y = append(upS.Y, up)
		f.addKPI("retrans_down_"+n.String(), down)
		f.addKPI("retrans_up_"+n.String(), up)
	}
	f.Series = []Series{downS, upS}
	return f
}

// minSpeedBucketSamples is the Figure 6 stability floor: speed buckets
// with fewer rural samples than this are dropped.
const minSpeedBucketSamples = 30

func buildFigure6(sa *StreamAnalysis) *Figure {
	f := &Figure{
		ID: "fig6", Title: "Throughput vs moving speed (rural only)",
		Kind: Bars, XLabel: "speed bucket (km/h)", YLabel: "mean throughput (Mbps)",
	}
	for _, n := range orderPreferredNetworks(sa.networks(),
		channel.StarlinkMobility, channel.StarlinkRoam, channel.ATT, channel.TMobile, channel.Verizon) {
		byBucket := sa.p.speed[n]
		// Bucket order is a lexical sort of the "%02d"-formatted lower
		// edges ("100" sorts between "10" and "20"), which the
		// calibration KPIs were measured under.
		keys := make([]string, 0, len(byBucket))
		edges := make(map[string]int, len(byBucket))
		for b := range byBucket {
			k := fmt.Sprintf("%02d", b)
			keys = append(keys, k)
			edges[k] = b
		}
		sort.Strings(keys)
		s := Series{Label: n.String()}
		all := stats.NewSketch()
		for _, key := range keys {
			bs := byBucket[edges[key]]
			if bs.N() < minSpeedBucketSamples {
				continue // too few samples for a stable bucket mean
			}
			s.X = append(s.X, float64(edges[key]))
			s.Y = append(s.Y, bs.Mean())
			all.Merge(bs)
		}
		overall := all.Mean()
		var devMax float64
		for _, y := range s.Y {
			if dev := absFloat(y-overall) / overall; dev > devMax {
				devMax = dev
			}
		}
		f.Series = append(f.Series, s)
		f.addKPI("speed_dev_"+n.String(), devMax)
	}
	return f
}

func buildFigure7(sa *StreamAnalysis) *Figure {
	f := &Figure{
		ID: "fig7", Title: "Downlink throughput improvement from TCP parallelism",
		Kind: Bars, XLabel: "scheme", YLabel: "improvement (%)",
	}
	// For an apples-to-apples comparison the 1/4/8-parallel transfers
	// are evaluated over the *same* test windows (the paper ran its
	// parallelism schemes back-to-back on the same road segments).
	gains := func(nets []channel.NetworkID) (g4, g8 float64) {
		var sums [3]float64
		for fi, flows := range fluidFlowCounts {
			pool := stats.NewSketch()
			for _, n := range nets {
				pool.Merge(sa.p.fluid[fluidKey{n, flows}])
			}
			sums[fi] = pool.Sum()
		}
		m1, m4, m8 := sums[0], sums[1], sums[2]
		if m1 <= 0 {
			return 0, 0
		}
		return (m4/m1 - 1) * 100, (m8/m1 - 1) * 100
	}
	rm4g, rm8g := gains([]channel.NetworkID{channel.StarlinkRoam})
	c4g, c8g := gains(sa.cellulars())
	f.Series = []Series{
		{Label: "Roam", X: []float64{4, 8}, Y: []float64{rm4g, rm8g}},
		{Label: "Cellular", X: []float64{4, 8}, Y: []float64{c4g, c8g}},
	}
	f.addKPI("rm_4p_gain_pct", rm4g)
	f.addKPI("rm_8p_gain_pct", rm8g)
	f.addKPI("cell_4p_gain_pct", c4g)
	f.addKPI("cell_8p_gain_pct", c8g)
	return f
}

func buildFigure8(sa *StreamAnalysis) *Figure {
	f := &Figure{
		ID: "fig8", Title: "UDP downlink throughput by area type",
		Kind: BoxPlot, XLabel: "area type", YLabel: "throughput (Mbps)",
	}
	for gi, group := range []struct {
		label string
		nets  []channel.NetworkID
	}{
		{"Cellular", sa.cellulars()},
		{"MOB", []channel.NetworkID{channel.StarlinkMobility}},
	} {
		s := Series{Label: group.label}
		for ai, area := range geo.AreaTypes {
			xs := stats.NewSketch()
			for _, n := range group.nets {
				xs.Merge(sa.p.area[netArea{n, area}])
			}
			box := xs.Box()
			s.X = append(s.X, float64(gi*3+ai))
			s.Y = append(s.Y, box.Median)
			f.addKPI(fmt.Sprintf("mean_%s_%s", group.label, area), xs.Mean())
			f.addKPI(fmt.Sprintf("median_%s_%s", group.label, area), box.Median)
		}
		f.Series = append(f.Series, s)
	}
	// Data share per area (the paper's 29.78/34.30/35.91 split).
	counts := sa.p.areaCounts
	total := 0
	for _, c := range counts {
		total += c
	}
	for _, area := range geo.AreaTypes {
		f.addKPI("share_"+area.String(), safeRatio(100*float64(counts[area]), float64(total)))
	}
	return f
}

// fig9Column is one Figure 9 bar: the best-of per-second downlink of
// its networks, bucketed into performance levels.
type fig9Column struct {
	label string
	nets  []channel.NetworkID
}

// fig9Columns builds the Figure 9 column set from the campaign's
// network classes. Order follows the paper, generalized over the
// scenario: each cellular carrier, the best-of-cellular combination,
// then each satellite network alone and paired with the cellular
// ensemble. For the default scenario this reproduces the paper's eight
// columns (ATT, TM, VZ, BestCL, RM, RM+CL, MOB, MOB+CL) exactly.
func fig9Columns(cellulars, satellites []channel.NetworkID) []fig9Column {
	var cols []fig9Column
	for _, n := range cellulars {
		cols = append(cols, fig9Column{n.String(), []channel.NetworkID{n}})
	}
	if len(cellulars) > 1 {
		cols = append(cols, fig9Column{"BestCL", cellulars})
	}
	for _, n := range satellites {
		cols = append(cols, fig9Column{n.String(), []channel.NetworkID{n}})
		if len(cellulars) > 0 {
			cols = append(cols, fig9Column{n.String() + "+CL",
				append([]channel.NetworkID{n}, cellulars...)})
		}
	}
	return cols
}

func buildFigure9(sa *StreamAnalysis) *Figure {
	f := &Figure{
		ID: "fig9", Title: "Coverage share per performance level",
		Kind: StackedBars, XLabel: "network", YLabel: "fraction",
	}
	for ci, c := range sa.p.cols {
		s := Series{Label: c.label}
		for lvl := 0; lvl < 4; lvl++ {
			frac := safeRatio(float64(sa.p.perfCounts[ci][lvl]), float64(sa.p.perfTotal))
			s.X = append(s.X, float64(lvl))
			s.Y = append(s.Y, frac)
			f.addKPI(fmt.Sprintf("%s_%s", c.label, PerfLevelNames[lvl]), frac)
		}
		f.Series = append(f.Series, s)
	}
	return f
}

func buildEquation1() *Figure {
	f := &Figure{
		ID: "eq1", Title: "One-way satellite propagation latency (Eq. 1)",
		Kind: Bars, XLabel: "altitude (km)", YLabel: "latency (ms)",
	}
	s := Series{Label: "one-way latency"}
	for _, alt := range []float64{340, 550, 1150} {
		s.X = append(s.X, alt)
		s.Y = append(s.Y, leo.OneWayPropagation(alt).Seconds()*1000)
	}
	f.Series = []Series{s}
	f.addKPI("latency_550km_ms", leo.OneWayPropagation(550).Seconds()*1000)
	return f
}

func buildDatasetSummary(sa *StreamAnalysis) *Figure {
	p := sa.p
	f := &Figure{ID: "dataset", Title: "Driving dataset summary (§3.3)", Kind: Bars}
	f.addKPI("tests", float64(p.tests))
	f.addKPI("tests_complete", float64(p.outcomes[dataset.OutcomeComplete]))
	f.addKPI("tests_truncated", float64(p.outcomes[dataset.OutcomeTruncated]))
	f.addKPI("tests_failed", float64(p.outcomes[dataset.OutcomeFailed]))
	f.addKPI("tests_skipped_by_figures", float64(p.skipped))
	f.addKPI("trace_minutes", sa.info.TotalTestMin)
	f.addKPI("distance_km", sa.info.TotalKm)
	f.addKPI("drives", float64(p.drives))
	f.addKPI("states", float64(len(p.states)))
	return f
}
