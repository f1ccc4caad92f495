// Package stats provides the small statistical toolkit used throughout
// satcell: descriptive statistics, box-plot summaries, the mergeable
// Sketch the streaming analysis aggregates into, and the
// deterministic random processes (Gilbert-Elliott loss chains,
// Ornstein-Uhlenbeck walks) used by the channel models.
//
// Everything in this package is purely computational and deterministic
// given its inputs; random processes take an explicit *rand.Rand so that
// experiments are reproducible from a seed.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 if len(xs) < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(n)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// sortedCopy returns xs sorted ascending without mutating the input.
// It is the single copy-and-sort site shared by Summarize and Box.
func sortedCopy(xs []float64) []float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return sorted
}

// quantileSorted returns the q-quantile (0 <= q <= 1) of a non-empty
// ascending sample using linear interpolation between closest ranks
// (the same rule as numpy's default).
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary is a compact descriptive-statistics record for one sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	P25    float64
	Median float64
	P75    float64
	P90    float64
	P95    float64
	Max    float64
}

// Summarize computes a Summary of xs in a single pass over the sorted data.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	return summarySorted(sortedCopy(xs), Mean(xs), StdDev(xs))
}

func summarySorted(sorted []float64, mean, std float64) Summary {
	return Summary{
		N:      len(sorted),
		Mean:   mean,
		Std:    std,
		Min:    sorted[0],
		P25:    quantileSorted(sorted, 0.25),
		Median: quantileSorted(sorted, 0.5),
		P75:    quantileSorted(sorted, 0.75),
		P90:    quantileSorted(sorted, 0.90),
		P95:    quantileSorted(sorted, 0.95),
		Max:    sorted[len(sorted)-1],
	}
}

// BoxStats is the five-number summary drawn by a box plot, with whiskers
// at the most extreme points within 1.5×IQR of the quartiles (Tukey).
type BoxStats struct {
	Mean        float64
	Q1          float64
	Median      float64
	Q3          float64
	WhiskerLow  float64
	WhiskerHigh float64
	Outliers    int
}

// Box computes Tukey box-plot statistics for xs.
func Box(xs []float64) BoxStats {
	if len(xs) == 0 {
		return BoxStats{}
	}
	return boxSorted(sortedCopy(xs), Mean(xs))
}

func boxSorted(sorted []float64, mean float64) BoxStats {
	b := BoxStats{
		Mean:   mean,
		Q1:     quantileSorted(sorted, 0.25),
		Median: quantileSorted(sorted, 0.5),
		Q3:     quantileSorted(sorted, 0.75),
	}
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - 1.5*iqr
	hiFence := b.Q3 + 1.5*iqr
	b.WhiskerLow = b.Q3
	b.WhiskerHigh = b.Q1
	for _, x := range sorted {
		if x < loFence || x > hiFence {
			b.Outliers++
			continue
		}
		if x < b.WhiskerLow {
			b.WhiskerLow = x
		}
		if x > b.WhiskerHigh {
			b.WhiskerHigh = x
		}
	}
	return b
}
