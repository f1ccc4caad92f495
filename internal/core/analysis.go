package core

import (
	"context"
	"math/rand"
	"sync"

	"satcell/internal/channel"
	"satcell/internal/dataset"
)

// Analyzer runs the paper's analyses over an in-memory dataset. The
// aggregate figures (1, 3a-9, Eq. 1 and the dataset summary) render from
// one streamed pass over the dataset — StreamAnalyzeContext over a
// DatasetSource — built on the first such figure and shared by the rest;
// figures 10 and 11 and the MPTCP ablation replay aligned trace windows
// packet by packet and never build it.
type Analyzer struct {
	DS *dataset.Dataset
	// Seed seeds the packet-level replays. The aggregate figures derive
	// their fluid-TCP variants from DS.Seed, which NewAnalyzer copies here.
	Seed int64

	// Catalog classifies the dataset's networks (satellite vs cellular)
	// and resolves display names. Nil means the default catalog, which
	// covers the built-in five plus everything registered through the
	// public API; set it when analyzing a dataset generated from a
	// cloned catalog.
	Catalog *channel.Catalog

	aggOnce sync.Once
	agg     *StreamAnalysis
	aggErr  error
}

// NewAnalyzer wraps a dataset. It does no work: the aggregate pass runs
// on the first aggregate figure.
func NewAnalyzer(ds *dataset.Dataset) *Analyzer {
	return &Analyzer{DS: ds, Seed: ds.Seed}
}

// analysis returns the streamed aggregate state of a.DS, building it on
// first use with one worker per core. The figure methods return no
// error, so a dataset the pipeline rejects (a test claiming a drive the
// dataset does not have) panics with the pipeline's itemised error;
// AllFigures returns the same error instead.
func (a *Analyzer) analysis() *StreamAnalysis {
	a.aggOnce.Do(func() {
		a.agg, a.aggErr = StreamAnalyzeContext(context.Background(), &DatasetSource{DS: a.DS},
			StreamOptions{Strict: true, Catalog: a.Catalog})
	})
	if a.aggErr != nil {
		panic(a.aggErr)
	}
	return a.agg
}

// Networks returns the dataset's measured networks in campaign order,
// falling back to the built-in five for datasets predating scenarios.
func (a *Analyzer) Networks() []channel.NetworkID {
	if len(a.DS.Networks) > 0 {
		return a.DS.Networks
	}
	return channel.Networks
}

// Figure1 reproduces the motivation timeline: download throughput of
// MOB, VZ, TM and ATT over one continuous mixed-area drive.
func (a *Analyzer) Figure1() *Figure { return buildFigure1(a.analysis()) }

// Figure3a reproduces the TCP-vs-UDP downlink CDFs for Starlink
// Mobility vs the pooled cellular carriers.
func (a *Analyzer) Figure3a() *Figure { return buildFigure3a(a.analysis()) }

// Figure3b reproduces the Roam-vs-Mobility UDP downlink comparison.
func (a *Analyzer) Figure3b() *Figure { return buildFigure3b(a.analysis()) }

// Figure3c reproduces the Starlink uplink/downlink asymmetry.
func (a *Analyzer) Figure3c() *Figure { return buildFigure3c(a.analysis()) }

// Figure4 reproduces the UDP-Ping latency CDFs of all five networks.
func (a *Analyzer) Figure4() *Figure { return buildFigure4(a.analysis()) }

// Figure5 reproduces the TCP retransmission-rate comparison (up and
// down) across all networks.
func (a *Analyzer) Figure5() *Figure { return buildFigure5(a.analysis()) }

// Figure6 reproduces the speed-impact analysis: mean throughput per
// 10 km/h bucket, rural samples only, for MOB and the carriers.
func (a *Analyzer) Figure6() *Figure { return buildFigure6(a.analysis()) }

// Figure7 reproduces the TCP-parallelism improvement: throughput gain
// of 4 and 8 parallel connections over a single connection, for
// Starlink Roam vs the pooled cellular carriers.
func (a *Analyzer) Figure7() *Figure { return buildFigure7(a.analysis()) }

// Figure8 reproduces the area-type analysis: UDP downlink throughput
// distribution per area type for pooled cellular vs Starlink Mobility.
func (a *Analyzer) Figure8() *Figure { return buildFigure8(a.analysis()) }

// PerfLevel buckets a throughput sample into the paper's performance
// levels, indexing PerfLevelNames: very low (<20), low (20-50), medium
// (50-100), high (>100).
func PerfLevel(mbps float64) int {
	switch {
	case mbps < 20:
		return 0
	case mbps < 50:
		return 1
	case mbps < 100:
		return 2
	default:
		return 3
	}
}

// PerfLevelNames names the Figure 9 levels in order.
var PerfLevelNames = []string{"very-low", "low", "medium", "high"}

// Figure9 reproduces the performance-coverage comparison: the share of
// time each network (and combination) spends in each performance level,
// using time-aligned per-second UDP downlink samples.
func (a *Analyzer) Figure9() *Figure { return buildFigure9(a.analysis()) }

// Equation1 reproduces Eq. (1): the one-way propagation latency of a
// 550 km overhead satellite hop.
func (a *Analyzer) Equation1() *Figure { return buildEquation1() }

// testTrace rebuilds the channel trace of one test window.
func testTrace(t *dataset.Test) *channel.Trace {
	tr := &channel.Trace{Network: t.Network}
	for _, r := range t.Records {
		s := r.Sample
		s.At -= t.Start
		tr.Samples = append(tr.Samples, s)
	}
	return tr
}

// rngFor derives a deterministic RNG for one (test, variant) pair.
func rngFor(seed int64, testID, variant int) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ int64(testID)*1_000_003 ^ int64(variant)*7_777_777))
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func absFloat(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// DatasetSummary reports the §3.3 bookkeeping numbers.
func (a *Analyzer) DatasetSummary() *Figure { return buildDatasetSummary(a.analysis()) }
