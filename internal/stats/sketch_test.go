package stats

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// randomSamples draws n samples with repeated values and signed zeros
// mixed in, so the run representation is actually exercised.
func randomSamples(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch rng.Intn(10) {
		case 0:
			out[i] = 0
		case 1:
			out[i] = math.Copysign(0, -1) // -0.0 must normalize
		case 2:
			out[i] = float64(rng.Intn(5)) // force duplicate runs
		default:
			out[i] = rng.NormFloat64() * 50
		}
	}
	return out
}

func sketchOf(vs []float64) *Sketch {
	s := NewSketch()
	s.AddSlice(vs)
	return s
}

// equalSketch compares two sketches structurally (runs + counts).
func equalSketch(t *testing.T, label string, a, b *Sketch) {
	t.Helper()
	a.compact()
	b.compact()
	if a.n != b.n {
		t.Fatalf("%s: n %d != %d", label, a.n, b.n)
	}
	if !sameRuns(a.runs, b.runs) {
		t.Fatalf("%s: run representation differs", label)
	}
}

// sameRuns reports whether two run lists hold the same values, bit for
// bit (so NaN runs compare too), with the same counts.
func sameRuns(a, b runs) bool {
	if len(a.vals) != len(b.vals) || !reflect.DeepEqual(a.counts, b.counts) {
		return false
	}
	for i := range a.vals {
		if math.Float64bits(a.vals[i]) != math.Float64bits(b.vals[i]) {
			return false
		}
	}
	return true
}

// oracleRuns builds the canonical runs of vs without any sketch code:
// -0 as +0, sort.Float64s order, equal values counted, each NaN alone.
func oracleRuns(vs []float64) runs {
	sorted := append([]float64(nil), vs...)
	for i, v := range sorted {
		if v == 0 {
			sorted[i] = 0
		}
	}
	sort.Float64s(sorted)
	var r runs
	for _, v := range sorted {
		if k := len(r.vals); k > 0 && r.vals[k-1] == v {
			r.counts[k-1]++
			continue
		}
		r.vals = append(r.vals, v)
		r.counts = append(r.counts, 1)
	}
	return r
}

// awkwardSamples draws n samples in one of three moods: the usual mix
// (randomSamples), values from a handful of duplicates, or special
// values — NaN, ±Inf, ±0, the extreme finite and subnormal values —
// among ordinary ones.
func awkwardSamples(rng *rand.Rand, n int) []float64 {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1, -1}
	switch rng.Intn(3) {
	case 0:
		return randomSamples(rng, n)
	case 1:
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(rng.Intn(4)) - 1.5
		}
		return out
	default:
		out := randomSamples(rng, n)
		for i := range out {
			if rng.Intn(4) == 0 {
				out[i] = special[rng.Intn(len(special))]
			}
		}
		return out
	}
}

// TestSketchMergeLaws property-tests the merge algebra the streaming
// analyzer's exactness argument rests on: identity, commutativity and
// associativity must hold *structurally* (identical runs), so every
// derived statistic is bit-identical under any merge tree.
func TestSketchMergeLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		xs := randomSamples(rng, rng.Intn(200))
		ys := randomSamples(rng, rng.Intn(200))
		zs := randomSamples(rng, rng.Intn(200))

		// Identity: s ⊕ empty == s.
		id := sketchOf(xs)
		id.Merge(NewSketch())
		equalSketch(t, "identity", id, sketchOf(xs))

		// Commutativity: x ⊕ y == y ⊕ x.
		xy := sketchOf(xs)
		xy.Merge(sketchOf(ys))
		yx := sketchOf(ys)
		yx.Merge(sketchOf(xs))
		equalSketch(t, "commutativity", xy, yx)

		// Associativity: (x ⊕ y) ⊕ z == x ⊕ (y ⊕ z).
		left := sketchOf(xs)
		left.Merge(sketchOf(ys))
		left.Merge(sketchOf(zs))
		right := sketchOf(ys)
		right.Merge(sketchOf(zs))
		rightTotal := sketchOf(xs)
		rightTotal.Merge(right)
		equalSketch(t, "associativity", left, rightTotal)

		// Partition invariance: merging per-element singletons in a
		// shuffled order reproduces the bulk sketch exactly.
		all := append(append(append([]float64(nil), xs...), ys...), zs...)
		perm := rng.Perm(len(all))
		shuffled := NewSketch()
		for _, i := range perm {
			shuffled.Add(all[i])
		}
		equalSketch(t, "partition invariance", shuffled, sketchOf(all))
	}

	// Interleaved Adds, Merges and reads, in batches on both sides of
	// radixMin and minCompact, must leave the runs of one sketch given
	// every sample, and the oracle's. Compacted sketches merge runs into
	// runs, pending ones append; reads compact in between.
	sizes := []int{1, 7, radixMin - 1, radixMin, radixMin + 1, 900, minCompact - 1, minCompact, 3000}
	for trial := 0; trial < 40; trial++ {
		s, one := NewSketch(), NewSketch()
		var all []float64
		for op := 0; op < 25; op++ {
			xs := awkwardSamples(rng, sizes[rng.Intn(len(sizes))])
			all = append(all, xs...)
			one.AddSlice(xs)
			switch rng.Intn(6) {
			case 0:
				s.AddSlice(xs)
			case 5:
				// A sketch merged into itself holds every sample twice.
				s.AddSlice(xs)
				if len(all) < 1<<15 {
					s.Merge(s)
					one.AddSlice(all)
					all = append(all, all...)
				}
			case 1:
				s.Merge(sketchOf(xs))
			case 2:
				// A compacted sketch: its runs merge into s's.
				o := sketchOf(xs)
				o.compact()
				s.Merge(o)
			case 3:
				// Shrinking compacted pieces, each merged into s's runs.
				for len(xs) > 0 {
					k := (len(xs) + 1) / 2
					o := sketchOf(xs[:k])
					o.compact()
					s.Merge(o)
					xs = xs[k:]
				}
			default:
				// A sketch that holds merged samples of its own.
				o := NewSketch()
				o.Merge(sketchOf(xs[:len(xs)/2]))
				o.Merge(sketchOf(xs[len(xs)/2:]))
				s.Merge(o)
			}
			if s.N() != int64(len(all)) {
				t.Fatalf("trial %d op %d: N %d, want %d", trial, op, s.N(), len(all))
			}
			if rng.Intn(4) == 0 {
				s.Median()
				if len(s.pend) != 0 {
					t.Fatalf("trial %d op %d: a read left %d pending samples", trial, op, len(s.pend))
				}
			}
		}
		equalSketch(t, fmt.Sprintf("interleaved trial %d", trial), s, one)
		if !sameRuns(s.runs, oracleRuns(all)) {
			t.Fatalf("interleaved trial %d: runs differ from the oracle's", trial)
		}
	}
}

// TestSortFloatsMatchesSort holds the radix sort to sort.Float64s on
// batches on both sides of radixMin, with NaNs (which send the batch to
// sort.Float64s), ±Inf, subnormals and many duplicates.
func TestSortFloatsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		xs := awkwardSamples(rng, rng.Intn(3*radixMin))
		for i, v := range xs {
			if v == 0 {
				xs[i] = 0 // the sketch normalizes -0 before sorting
			}
		}
		got, want := append([]float64(nil), xs...), append([]float64(nil), xs...)
		sortFloats(got)
		sort.Float64s(want)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: sortFloats[%d] = %v, sort.Float64s %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestSketchMatchesCDF pins every Sketch statistic against the
// slice-based stats implementations it replicates.
func TestSketchMatchesCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		xs := randomSamples(rng, 1+rng.Intn(300))
		s := sketchOf(xs)
		c := NewCDF(xs)
		if int64(c.N()) != s.N() {
			t.Fatalf("N: %d != %d", s.N(), c.N())
		}
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			if got, want := s.Quantile(q), c.Quantile(q); got != want {
				t.Fatalf("Quantile(%g): %v != %v", q, got, want)
			}
		}
		sx, sp := s.Points(101)
		cx, cp := c.Points(101)
		if !reflect.DeepEqual(sx, cx) || !reflect.DeepEqual(sp, cp) {
			t.Fatalf("Points(101) differ")
		}
		// Box replicates the fences/whiskers/outlier logic; the mean is
		// canonical (ascending-run order) so compare it to the sorted sum.
		sb, cb := s.Box(), c.Box()
		if sb.Q1 != cb.Q1 || sb.Median != cb.Median || sb.Q3 != cb.Q3 ||
			sb.WhiskerLow != cb.WhiskerLow || sb.WhiskerHigh != cb.WhiskerHigh ||
			sb.Outliers != cb.Outliers {
			t.Fatalf("Box: %+v != %+v", sb, cb)
		}
		if math.Abs(sb.Mean-cb.Mean) > 1e-9*(1+math.Abs(cb.Mean)) {
			t.Fatalf("Box mean: %v vs %v", sb.Mean, cb.Mean)
		}
		if got, want := s.Mean(), Mean(xs); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("Mean: %v vs %v", got, want)
		}
	}
}

func TestSketchEmptyAndSingle(t *testing.T) {
	e := NewSketch()
	if e.Mean() != 0 || e.Median() != 0 || e.Sum() != 0 {
		t.Fatal("empty sketch statistics must be 0")
	}
	if xs, ps := e.Points(101); xs != nil || ps != nil {
		t.Fatal("empty sketch Points must be nil")
	}
	one := sketchOf([]float64{3.5})
	for _, q := range []float64{0, 0.5, 1} {
		if one.Quantile(q) != 3.5 {
			t.Fatalf("single-sample quantile(%g) = %v", q, one.Quantile(q))
		}
	}
}

// TestHistogramMergeLaws checks the integer-count merge algebra and the
// geometry guard.
func TestHistogramMergeLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	build := func(vs []float64) *Histogram {
		h := NewHistogram(-100, 100, 20)
		for _, v := range vs {
			h.Add(v)
		}
		return h
	}
	hEq := func(a, b *Histogram) bool {
		return a.Under == b.Under && a.Over == b.Over && a.total == b.total &&
			reflect.DeepEqual(a.Counts, b.Counts)
	}
	for trial := 0; trial < 30; trial++ {
		xs := randomSamples(rng, rng.Intn(200))
		ys := randomSamples(rng, rng.Intn(200))
		zs := randomSamples(rng, rng.Intn(200))

		id := build(xs)
		if err := id.Merge(NewHistogram(-100, 100, 20)); err != nil {
			t.Fatal(err)
		}
		if !hEq(id, build(xs)) {
			t.Fatal("histogram identity violated")
		}

		xy := build(xs)
		_ = xy.Merge(build(ys))
		yx := build(ys)
		_ = yx.Merge(build(xs))
		if !hEq(xy, yx) {
			t.Fatal("histogram commutativity violated")
		}

		left := build(xs)
		_ = left.Merge(build(ys))
		_ = left.Merge(build(zs))
		right := build(ys)
		_ = right.Merge(build(zs))
		rightTotal := build(xs)
		_ = rightTotal.Merge(right)
		if !hEq(left, rightTotal) {
			t.Fatal("histogram associativity violated")
		}
	}
	if err := NewHistogram(0, 1, 4).Merge(NewHistogram(0, 2, 4)); err == nil {
		t.Fatal("geometry mismatch must refuse to merge")
	}
}

// CDF is an empirical cumulative distribution function over a sorted
// copy of the sample: the slice-based reference every Sketch statistic
// is checked against.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from xs. The input is copied.
func NewCDF(xs []float64) *CDF {
	return &CDF{sorted: sortedCopy(xs)}
}

// N returns the number of underlying samples.
func (c *CDF) N() int { return len(c.sorted) }

// Eval returns P(X <= x).
func (c *CDF) Eval(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// Index of first element > x.
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-quantile of the underlying sample.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	return quantileSorted(c.sorted, q)
}

// Box computes Tukey box-plot statistics over the underlying sample,
// reusing the already-sorted backing.
func (c *CDF) Box() BoxStats {
	if len(c.sorted) == 0 {
		return BoxStats{}
	}
	return boxSorted(c.sorted, Mean(c.sorted))
}

// Points returns n (x, F(x)) pairs evenly spaced in probability, suitable
// for plotting the CDF curve.
func (c *CDF) Points(n int) (xs, ps []float64) {
	if n < 2 || len(c.sorted) == 0 {
		return nil, nil
	}
	xs = make([]float64, n)
	ps = make([]float64, n)
	for i := 0; i < n; i++ {
		p := float64(i) / float64(n-1)
		ps[i] = p
		xs[i] = quantileSorted(c.sorted, p)
	}
	return xs, ps
}

// Histogram is a fixed-width-bin histogram over [Lo, Hi) whose integer
// counts merge exactly.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Under  int // samples below Lo
	Over   int // samples at or above Hi
	total  int
}

// NewHistogram creates a histogram with bins equal-width bins over [lo, hi).
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins < 1 {
		bins = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	if x < h.Lo {
		h.Under++
		return
	}
	if x >= h.Hi {
		h.Over++
		return
	}
	i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
}

// Total returns the number of observations added, including out-of-range.
func (h *Histogram) Total() int { return h.total }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*(float64(i)+0.5)
}

// Merge folds o's counts into h. The histograms must share bucket
// geometry ([Lo, Hi) and bin count); integer counts make the merge
// exactly associative and commutative.
func (h *Histogram) Merge(o *Histogram) error {
	if h.Lo != o.Lo || h.Hi != o.Hi || len(h.Counts) != len(o.Counts) {
		return fmt.Errorf("stats: histogram merge geometry mismatch: [%g,%g)x%d vs [%g,%g)x%d",
			h.Lo, h.Hi, len(h.Counts), o.Lo, o.Hi, len(o.Counts))
	}
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.Under += o.Under
	h.Over += o.Over
	h.total += o.total
	return nil
}

// BenchmarkSketchMerge does a stream's sketch work for one KPI: each of
// 64 shard sketches takes 200 to 1,800 throughput samples in Mbps to
// two decimals (about what one area of one network holds in a drive of
// a scale-0.5 campaign) and merges into one sketch, which is then read,
// so compacted.
func BenchmarkSketchMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	shards := make([][]float64, 64)
	for i := range shards {
		shards[i] = make([]float64, 200+rng.Intn(1601))
		for j := range shards[i] {
			shards[i][j] = math.Round(rng.ExpFloat64()*8000) / 100
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := NewSketch()
		for _, xs := range shards {
			s := NewSketch()
			s.AddSlice(xs)
			m.Merge(s)
		}
		m.Median()
	}
}
