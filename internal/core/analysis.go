package core

import (
	"math/rand"

	"satcell/internal/channel"
	"satcell/internal/dataset"
)

// Analyzer runs the paper's §6 packet-level replays over an in-memory
// dataset: figures 10 and 11 and the MPTCP ablation replay aligned trace
// windows packet by packet. The aggregate figures (1, 3a-9, Eq. 1 and
// the dataset summary) render from StreamAnalysis.Figures instead.
type Analyzer struct {
	DS *dataset.Dataset
}

// NewAnalyzer wraps a dataset. It does no work until a replay runs.
func NewAnalyzer(ds *dataset.Dataset) *Analyzer { return &Analyzer{DS: ds} }

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
