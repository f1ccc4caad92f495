package stats

import (
	"math"
	"sort"
)

// Sketch is an exact, mergeable empirical distribution: the multiset of
// added samples stored as ascending (value, count) runs. It is the
// unit of the streaming analyzer's two-tier aggregation — each shard
// worker accumulates one Sketch per tracked KPI distribution, and
// merged sketches are *canonical*: two sketches holding the same
// multiset are structurally identical no matter how the samples were
// partitioned, which order the partitions merged in, or how the merges
// were grouped. Every derived statistic (Mean, Quantile, Box, Points)
// is computed from the runs in ascending order, so it is bit-identical
// across worker counts and shard interleavings.
//
// Unlike a compressing quantile sketch (t-digest, KLL), a Sketch is
// exact: memory is O(distinct values). For the campaign's KPI
// distributions that is bounded by the campaign's measured seconds —
// far below the full record/test structures the in-memory path holds —
// and it is what makes the streaming figures bit-reproducible rather
// than approximate.
type Sketch struct {
	vals   []float64 // ascending distinct values
	counts []int64   // counts[i] > 0 is the multiplicity of vals[i]
	cum    []int64   // cum[i] = counts[0] + ... + counts[i]; built lazily
	pend   []float64 // samples added since the last compaction
	n      int64
}

// NewSketch returns an empty sketch. The zero value is also ready to use.
func NewSketch() *Sketch { return &Sketch{} }

// Add records one sample. Negative zero is normalized to positive zero:
// the two compare equal, so keeping both as distinct runs would make
// the run layout depend on insertion order and break canonicality.
func (s *Sketch) Add(v float64) {
	if v == 0 {
		v = 0 // collapses -0.0 into +0.0
	}
	s.pend = append(s.pend, v)
	s.n++
	if len(s.pend) >= 1024 && len(s.pend) >= len(s.vals)/4 {
		s.compact()
	}
}

// AddSlice records every sample of vs.
func (s *Sketch) AddSlice(vs []float64) {
	for _, v := range vs {
		s.Add(v)
	}
}

// compact folds the pending samples into the run representation.
func (s *Sketch) compact() {
	if len(s.pend) == 0 {
		return
	}
	sort.Float64s(s.pend)
	vals := make([]float64, 0, len(s.pend))
	counts := make([]int64, 0, len(s.pend))
	for _, v := range s.pend {
		if k := len(vals); k > 0 && vals[k-1] == v {
			counts[k-1]++
			continue
		}
		vals = append(vals, v)
		counts = append(counts, 1)
	}
	s.pend = s.pend[:0]
	s.merge(vals, counts)
}

// merge folds ascending runs (vals, counts) into the sketch's runs.
// It merges in place, reusing the run arrays' spare capacity: the
// streaming workers merge one small shard sketch into a large partial
// per shard, and rewriting fresh full-size arrays there would put the
// whole distribution on the heap twice per merge.
func (s *Sketch) merge(vals []float64, counts []int64) {
	s.cum = nil
	if len(vals) == 0 {
		return
	}
	if len(s.vals) == 0 {
		s.vals = append(s.vals[:0], vals...)
		s.counts = append(s.counts[:0], counts...)
		return
	}
	ls := len(s.vals)
	s.vals = append(s.vals, vals...)
	s.counts = append(s.counts, counts...)
	// Backward merge into the grown tail. The write cursor k stays at
	// least j+1 ahead of both read cursors (each step writes one slot
	// and consumes at least one input), so nothing unread is clobbered
	// even when vals aliases the old backing array.
	i, j, k := ls-1, len(vals)-1, len(s.vals)-1
	for j >= 0 {
		switch {
		case i >= 0 && s.vals[i] > vals[j]:
			s.vals[k], s.counts[k] = s.vals[i], s.counts[i]
			i--
		case i >= 0 && s.vals[i] == vals[j]:
			s.vals[k] = vals[j]
			s.counts[k] = s.counts[i] + counts[j]
			i--
			j--
		default:
			s.vals[k], s.counts[k] = vals[j], counts[j]
			j--
		}
		k--
	}
	// Equal values collapsed into single runs leave a gap (i, k]
	// between the untouched prefix and the merged tail; close it.
	if k > i {
		n := copy(s.vals[i+1:], s.vals[k+1:])
		copy(s.counts[i+1:], s.counts[k+1:])
		s.vals = s.vals[:i+1+n]
		s.counts = s.counts[:i+1+n]
	}
}

// Merge folds every sample of o into s. o is unchanged (its pending
// buffer may be compacted in place, which does not alter its multiset).
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.n == 0 {
		return
	}
	o.compact()
	s.compact()
	s.merge(o.vals, o.counts)
	s.n += o.n
}

// N returns the number of samples recorded.
func (s *Sketch) N() int64 { return s.n }

// Sum returns the canonical sample sum: Σ value×count over the runs in
// ascending order. Because the runs are a pure function of the
// multiset, the sum is bit-identical however the samples were
// partitioned — the property the streaming/in-memory equivalence rests
// on. (It may differ by ulps from naively summing the samples in
// insertion order; both analysis paths therefore use this form.)
func (s *Sketch) Sum() float64 {
	s.compact()
	sum := 0.0
	for i, v := range s.vals {
		sum += v * float64(s.counts[i])
	}
	return sum
}

// Mean returns Sum()/N(), or 0 when empty.
func (s *Sketch) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.Sum() / float64(s.n)
}

// rank returns the i-th smallest sample (0-based).
func (s *Sketch) rank(i int64) float64 {
	if s.cum == nil {
		s.cum = make([]int64, len(s.counts))
		run := int64(0)
		for k, c := range s.counts {
			run += c
			s.cum[k] = run
		}
	}
	k := sort.Search(len(s.cum), func(k int) bool { return s.cum[k] > i })
	return s.vals[k]
}

// Quantile returns the q-quantile using the same linear interpolation
// between closest ranks as Summarize and Box, computed over the runs. It
// returns 0 when empty.
func (s *Sketch) Quantile(q float64) float64 {
	s.compact()
	if s.n == 0 {
		return 0
	}
	if s.n == 1 {
		return s.vals[0]
	}
	if q <= 0 {
		return s.vals[0]
	}
	if q >= 1 {
		return s.vals[len(s.vals)-1]
	}
	pos := q * float64(s.n-1)
	lo := int64(math.Floor(pos))
	frac := pos - float64(lo)
	a := s.rank(lo)
	b := s.rank(lo + 1)
	return a*(1-frac) + b*frac
}

// Median returns the 50th percentile.
func (s *Sketch) Median() float64 { return s.Quantile(0.5) }

// Box computes Tukey box-plot statistics, replicating stats.Box over
// the run representation (with the mean in canonical run order).
func (s *Sketch) Box() BoxStats {
	s.compact()
	if s.n == 0 {
		return BoxStats{}
	}
	b := BoxStats{
		Mean:   s.Mean(),
		Q1:     s.Quantile(0.25),
		Median: s.Quantile(0.5),
		Q3:     s.Quantile(0.75),
	}
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - 1.5*iqr
	hiFence := b.Q3 + 1.5*iqr
	b.WhiskerLow = b.Q3
	b.WhiskerHigh = b.Q1
	for i, v := range s.vals {
		if v < loFence || v > hiFence {
			b.Outliers += int(s.counts[i])
			continue
		}
		if v < b.WhiskerLow {
			b.WhiskerLow = v
		}
		if v > b.WhiskerHigh {
			b.WhiskerHigh = v
		}
	}
	return b
}

// Points returns n (x, F(x)) pairs evenly spaced in probability, each x
// the quantile at its p: the points of the CDF curve.
func (s *Sketch) Points(n int) (xs, ps []float64) {
	s.compact()
	if n < 2 || s.n == 0 {
		return nil, nil
	}
	xs = make([]float64, n)
	ps = make([]float64, n)
	for i := 0; i < n; i++ {
		p := float64(i) / float64(n-1)
		ps[i] = p
		xs[i] = s.Quantile(p)
	}
	return xs, ps
}
