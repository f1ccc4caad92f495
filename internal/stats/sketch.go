package stats

import (
	"math"
	"sort"
	"sync"
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
	runs           // ascending distinct values and their counts
	cum  []int64   // cum[i] = counts[0] + ... + counts[i]; built lazily
	pend []float64 // samples added or merged in since the last compaction
	n    int64
}

// runs is an ascending run list: vals holds distinct values and
// counts[i] > 0 is the multiplicity of vals[i].
type runs struct {
	vals   []float64
	counts []int64
}

// NewSketch returns an empty sketch. The zero value is also ready to use.
func NewSketch() *Sketch { return &Sketch{} }

// minCompact is the pending batch below which Add and Merge never
// compact. A streaming shard's local sketches stay below it, so their
// samples are sorted once, in the merged sketch's large batches, where
// the radix sort costs least per sample.
const minCompact = 1 << 14

// Add records one sample. Negative zero is normalized to positive zero:
// the two compare equal, so keeping both as distinct runs would make
// the run layout depend on insertion order and break canonicality.
func (s *Sketch) Add(v float64) {
	if v == 0 {
		v = 0 // collapses -0.0 into +0.0
	}
	s.pend = append(s.pend, v)
	s.n++
	if len(s.pend) >= minCompact && len(s.pend) >= len(s.vals) {
		s.flush()
	}
}

// AddSlice records every sample of vs.
func (s *Sketch) AddSlice(vs []float64) {
	for _, v := range vs {
		s.Add(v)
	}
}

// flush sorts the pending samples into runs and merges them into the
// sketch's runs. Add and Merge flush only once the batch is at least as
// long as the runs, so each merge costs O(1) per pending sample.
func (s *Sketch) flush() {
	if len(s.pend) == 0 {
		return
	}
	sortFloats(s.pend)
	var r runs
	r.vals = make([]float64, 0, len(s.pend))
	r.counts = make([]int64, 0, len(s.pend))
	for _, v := range s.pend {
		if k := len(r.vals); k > 0 && r.vals[k-1] == v {
			r.counts[k-1]++
			continue
		}
		r.vals = append(r.vals, v)
		r.counts = append(r.counts, 1)
	}
	s.pend = s.pend[:0]
	s.cum = nil
	if len(s.vals) == 0 {
		s.runs = r
	} else {
		s.runs.merge(r)
	}
}

// compact folds the pending samples into the runs, which are then the
// sketch's canonical runs, and lets go of the pending buffer. Every
// read compacts first.
func (s *Sketch) compact() {
	s.flush()
	s.pend = nil
}

// merge folds ascending runs o, which share no memory with r, into r.
// It merges in place, reusing r's spare capacity: rewriting fresh
// full-size arrays for each merge would put the whole distribution on
// the heap twice per merge. The loop is branch-free, since runs of
// similar length interleave unpredictably. A NaN orders below every
// number, as sort.Float64s puts it, and no two NaNs share a run; the
// NaN runs, at the front of both lists, are set aside and placed after
// the merge.
func (r *runs) merge(o runs) {
	bv, bc := o.vals, o.counts
	if len(bv) == 0 {
		return
	}
	na, nb := leadingNaNs(r.vals), leadingNaNs(bv)
	ls := len(r.vals)
	r.vals = append(r.vals, bv...)
	r.counts = append(r.counts, bc...)
	av, ac := r.vals, r.counts
	// Backward merge into the grown tail: the write cursor k stays
	// above the read cursor i, so nothing unread is clobbered.
	i, j, k := ls-1, len(bv)-1, len(av)-1
	for i >= na && j >= nb {
		a, b := av[i], bv[j]
		var ta, tb int
		if a >= b {
			ta = 1
		}
		if b >= a {
			tb = 1
		}
		av[k] = max(a, b)
		ac[k] = ac[i]&-int64(ta) + bc[j]&-int64(tb)
		i -= ta
		j -= tb
		k--
	}
	// What is left of o sorts below everything merged.
	if j >= nb {
		k -= copy(av[k-(j-nb):k+1], bv[nb:j+1])
		copy(ac[k+1:], bc[nb:j+1])
	}
	// o's NaN runs go after r's and before r's unmerged numbers.
	if nb > 0 {
		n := i + 1 - na
		copy(av[k+1-n:k+1], av[na:i+1])
		copy(ac[k+1-n:k+1], ac[na:i+1])
		k -= n
		copy(av[k+1-nb:k+1], bv[:nb])
		copy(ac[k+1-nb:k+1], bc[:nb])
		k -= nb
		i = na - 1
	}
	// Equal values collapsed into single runs leave a gap (i, k]
	// between the untouched prefix and the merged tail; close it.
	if k > i {
		n := copy(av[i+1:], av[k+1:])
		copy(ac[i+1:], ac[k+1:])
		r.vals = av[:i+1+n]
		r.counts = ac[:i+1+n]
	}
}

// leadingNaNs counts the NaN runs at the front of ascending runs vals.
func leadingNaNs(vals []float64) int {
	n := 0
	for n < len(vals) && vals[n] != vals[n] {
		n++
	}
	return n
}

// Merge folds every sample of o into s; o is unchanged. o's pending
// samples join s's unsorted and o's runs merge into s's, so merging a
// shard's sketch, whose samples are all pending, costs its size, not
// the merged sketch's.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.n == 0 {
		return
	}
	if o == s {
		c := Sketch{runs: runs{vals: append([]float64(nil), s.vals...), counts: append([]int64(nil), s.counts...)}, pend: s.pend, n: s.n}
		o = &c
	}
	s.cum = nil
	s.n += o.n
	s.pend = append(s.pend, o.pend...)
	s.runs.merge(o.runs)
	if len(s.pend) >= minCompact && len(s.pend) >= len(s.vals) {
		s.flush()
	}
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

// radixMin is the batch from which sortFloats radix-sorts: below it
// sort.Float64s is faster than six counting passes.
const radixMin = 2048

// sortFloats' radix sort takes radixBits of the key per pass, so six
// passes cover its 64 bits.
const (
	radixBits   = 11
	radixMask   = 1<<radixBits - 1
	radixPasses = (64 + radixBits - 1) / radixBits
)

// radixScratch recycles sortFloats' key buffers between compactions.
var radixScratch sync.Pool

// sortFloats sorts vs ascending as sort.Float64s does. From radixMin
// samples on it runs an LSD radix sort, eleven bits per pass, over each
// value's bits mapped to a key whose unsigned order is the float order
// (flip the sign bit of a positive value, every bit of a negative one),
// skipping the passes whose digit is the same in every key. A NaN has no
// place in that order, so a batch holding one goes to sort.Float64s,
// which puts NaNs first.
func sortFloats(vs []float64) {
	n := len(vs)
	if n < radixMin {
		sort.Float64s(vs)
		return
	}
	bufp, _ := radixScratch.Get().(*[]uint64)
	if bufp == nil {
		bufp = new([]uint64)
	}
	if cap(*bufp) < 2*n {
		*bufp = make([]uint64, 2*n)
	}
	defer radixScratch.Put(bufp)
	keys, tmp := (*bufp)[:n], (*bufp)[n:2*n]
	var hist [radixPasses][1 << radixBits]uint32
	for i, v := range vs {
		if v != v {
			sort.Float64s(vs)
			return
		}
		k := math.Float64bits(v)
		k ^= -(k >> 63) | 1<<63
		keys[i] = k
		hist[0][k&radixMask]++
		hist[1][k>>radixBits&radixMask]++
		hist[2][k>>(2*radixBits)&radixMask]++
		hist[3][k>>(3*radixBits)&radixMask]++
		hist[4][k>>(4*radixBits)&radixMask]++
		hist[5][k>>(5*radixBits)]++
	}
	for d := range hist {
		h := &hist[d]
		shift := radixBits * uint(d)
		if h[keys[0]>>shift&radixMask] == uint32(n) {
			continue
		}
		var sum uint32
		for b, c := range h {
			h[b] = sum
			sum += c
		}
		for _, k := range keys {
			b := k >> shift & radixMask
			tmp[h[b]] = k
			h[b]++
		}
		keys, tmp = tmp, keys
	}
	for i, k := range keys {
		vs[i] = math.Float64frombits(k ^ ((k>>63 - 1) | 1<<63))
	}
}
