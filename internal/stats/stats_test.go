package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanBasic(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", got)
	}
	if Variance([]float64{3}) != 0 {
		t.Fatal("Variance of single sample should be 0")
	}
}

func TestMinMaxSum(t *testing.T) {
	if got := Max([]float64{3, -1, 7, 0}); got != 7 {
		t.Fatalf("Max = %v", got)
	}
	if Max(nil) != 0 {
		t.Fatal("empty Max should be 0")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {1.0 / 3.0, 2.0},
	}
	for _, c := range cases {
		if got := quantileSorted(xs, c.q); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantileSorted([]float64{42}, 0.9); got != 42 {
		t.Fatalf("quantile of singleton = %v", got)
	}
}

// Summarize and Box sort a copy of their input.
func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if s := Summarize(xs); s.Median != 2 {
		t.Fatalf("Summarize median = %v, want 2", s.Median)
	}
	if b := Box(xs); b.Median != 2 {
		t.Fatalf("Box median = %v, want 2", b.Median)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Summarize or Box mutated its input")
	}
}

// Property: for any sample, quantiles are monotone in q and bounded by
// min/max of the sample.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		a := math.Abs(math.Mod(q1, 1))
		b := math.Abs(math.Mod(q2, 1))
		if a > b {
			a, b = b, a
		}
		sorted := sortedCopy(xs)
		qa, qb := quantileSorted(sorted, a), quantileSorted(sorted, b)
		return qa <= qb && qa >= slices.Min(xs) && qb <= slices.Max(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	s := Summarize(xs)
	if s.N != 101 || s.Min != 0 || s.Max != 100 {
		t.Fatalf("bad summary: %+v", s)
	}
	if !almostEqual(s.Median, 50, 1e-9) || !almostEqual(s.P25, 25, 1e-9) || !almostEqual(s.P75, 75, 1e-9) {
		t.Fatalf("bad quartiles: %+v", s)
	}
	if !almostEqual(s.Mean, 50, 1e-9) {
		t.Fatalf("bad mean: %v", s.Mean)
	}
}

func TestBoxStats(t *testing.T) {
	// 1..12 plus one far outlier.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 100}
	b := Box(xs)
	if b.Outliers != 1 {
		t.Fatalf("Outliers = %d, want 1", b.Outliers)
	}
	if b.WhiskerHigh != 12 || b.WhiskerLow != 1 {
		t.Fatalf("whiskers = [%v, %v], want [1, 12]", b.WhiskerLow, b.WhiskerHigh)
	}
	if b.Q1 >= b.Median || b.Median >= b.Q3 {
		t.Fatalf("quartile ordering violated: %+v", b)
	}
}

func TestBoxEmpty(t *testing.T) {
	if b := Box(nil); b.Mean != 0 || b.Outliers != 0 {
		t.Fatalf("Box(nil) = %+v", b)
	}
}

func TestCDFEvalAndQuantile(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	if got := c.Eval(0); got != 0 {
		t.Fatalf("Eval(0) = %v", got)
	}
	if got := c.Eval(2); got != 0.5 {
		t.Fatalf("Eval(2) = %v, want 0.5", got)
	}
	if got := c.Eval(10); got != 1 {
		t.Fatalf("Eval(10) = %v, want 1", got)
	}
	if got := c.Quantile(0.5); !almostEqual(got, 2.5, 1e-9) {
		t.Fatalf("Quantile(0.5) = %v", got)
	}
	if c.N() != 4 {
		t.Fatalf("N = %d", c.N())
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{5, 1, 3})
	xs, ps := c.Points(5)
	if len(xs) != 5 || len(ps) != 5 {
		t.Fatalf("Points lengths %d/%d", len(xs), len(ps))
	}
	if ps[0] != 0 || ps[4] != 1 {
		t.Fatalf("probability endpoints %v", ps)
	}
	if !sort.Float64sAreSorted(xs) {
		t.Fatalf("CDF x-points not sorted: %v", xs)
	}
	if xs[0] != 1 || xs[4] != 5 {
		t.Fatalf("x endpoints %v", xs)
	}
}

// Property: an empirical CDF is monotone non-decreasing.
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		c := NewCDF(xs)
		if a > b {
			a, b = b, a
		}
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		return c.Eval(a) <= c.Eval(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 0, 1.9, 2, 9.99, 10, 11} {
		h.Add(x)
	}
	if h.Under != 1 || h.Over != 2 {
		t.Fatalf("under/over = %d/%d", h.Under, h.Over)
	}
	if h.Counts[0] != 2 { // 0 and 1.9
		t.Fatalf("bin0 = %d", h.Counts[0])
	}
	if h.Counts[1] != 1 { // 2
		t.Fatalf("bin1 = %d", h.Counts[1])
	}
	if h.Counts[4] != 1 { // 9.99
		t.Fatalf("bin4 = %d", h.Counts[4])
	}
	if h.Total() != 7 {
		t.Fatalf("total = %d", h.Total())
	}
	if got := h.BinCenter(0); !almostEqual(got, 1, 1e-9) {
		t.Fatalf("BinCenter(0) = %v", got)
	}
}
