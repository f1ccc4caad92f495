package trace

import (
	"bytes"
	"encoding/csv"
	"io"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"

	"satcell/internal/channel"
	"satcell/internal/geo"
)

// checkFixed fails unless appendFixed matches strconv at precision p.
func checkFixed(t *testing.T, x float64, p int) {
	t.Helper()
	want := strconv.FormatFloat(x, 'f', p, 64)
	if got := string(appendFixed([]byte("x"), x, p)); got != "x"+want {
		t.Fatalf("appendFixed(%v [%#016x], %d) = %q, want %q",
			x, math.Float64bits(x), p, got[1:], want)
	}
}

// fixedSeeds are the edge cases of the fixed formatter: dyadic and
// decimal halfway points, signed zeros, subnormals, the fallbacks and
// the quotient's overflow boundary at each precision.
func fixedSeeds() []float64 {
	xs := []float64{
		0, math.Copysign(0, -1), 0.5, 1.5, 2.5, -2.5, 0.0625, 0.125, 0.375,
		0.0005, 0.00049999999999999999, 1.0005, 2.675, -0.0001, -0.0004999,
		1e-7, 5e-324, -5e-324, math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308,
		math.MaxFloat64, -math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
		1 << 52, 1<<52 + 0.5, 1<<53 - 1, 1 << 63, 123.456, 99.9995, -85.5, 1e15 + 0.3,
	}
	// Powers of two put the product's low bits in its upper word, where
	// the rounding must still see them at the larger precisions.
	for e := -100; e <= 0; e++ {
		xs = append(xs, math.Ldexp(1, e), math.Ldexp(3, e))
	}
	for p := range pow10 {
		for _, lim := range []float64{1 << 63, 1 << 64} {
			b := lim / math.Pow(10, float64(p))
			xs = append(xs, b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1)))
		}
	}
	return xs
}

func TestAppendFixedTable(t *testing.T) {
	for _, c := range []struct {
		x    float64
		prec int
		want string
	}{
		{0.0625, 3, "0.062"}, // dyadic halfway, round to even
		{0.375, 2, "0.38"},
		{2.5, 0, "2"},
		{3.5, 0, "4"},
		{0.5, 0, "0"},
		{2.675, 2, "2.67"}, // 2.67499999... in binary
		{-0.0001, 3, "-0.000"},
		{math.Copysign(0, -1), 2, "-0.00"},
		{5e-324, 8, "0.00000000"},
		{123.456, 2, "123.46"},
		{-85.5, 2, "-85.50"},
		{1 << 53, 1, "9007199254740992.0"},
		{math.NaN(), 3, "NaN"},
		{math.Inf(-1), 3, "-Inf"},
	} {
		if got := string(appendFixed(nil, c.x, c.prec)); got != c.want {
			t.Errorf("appendFixed(%v, %d) = %q, want %q", c.x, c.prec, got, c.want)
		}
	}
	for _, x := range fixedSeeds() {
		for p := 0; p <= len(pow10); p++ {
			checkFixed(t, x, p)
		}
	}
	// Random bit patterns cover the whole exponent range; k/10^p ± one
	// ulp and (k+½)/10^p land on and beside decimal halfway points.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		p := i % 9
		k := float64(rng.Int63n(1e12)) / math.Pow(10, float64(rng.Intn(12)))
		unit := math.Pow(10, -float64(p))
		for _, x := range []float64{
			math.Float64frombits(rng.Uint64()),
			k, -k, (math.Floor(k/unit) + 0.5) * unit,
			math.Nextafter(k, 0), math.Nextafter(k, math.Inf(1)),
		} {
			checkFixed(t, x, p)
		}
	}
}

// FuzzAppendFixed holds appendFixed to strconv at precisions 0–8 and at
// prec mod 20, which reaches the end of the power table.
func FuzzAppendFixed(f *testing.F) {
	for _, x := range fixedSeeds() {
		f.Add(x, uint8(3))
	}
	f.Fuzz(func(t *testing.T, x float64, prec uint8) {
		for p := 0; p <= 8; p++ {
			checkFixed(t, x, p)
		}
		checkFixed(t, x, int(prec)%len(pow10))
	})
}

// referenceCSV is the trace writer as encoding/csv and strconv render
// it: the reference the row writer must match byte for byte.
func referenceCSV(w io.Writer, network string, samples []channel.Sample, envs []channel.Env) error {
	cw := csv.NewWriter(w)
	header := append([]string{"network"}, csvHeader...)
	if envs != nil {
		header = append(header, csvEnvHeader...)
	}
	cw.Write(header)
	f := strconv.FormatFloat
	for i, s := range samples {
		rec := []string{
			network,
			strconv.FormatInt(s.At.Milliseconds(), 10),
			f(s.DownMbps, 'f', 3, 64),
			f(s.UpMbps, 'f', 3, 64),
			f(float64(s.RTT.Microseconds())/1000, 'f', 3, 64),
			f(s.LossDown, 'f', 6, 64),
			f(s.LossUp, 'f', 6, 64),
			f(s.SignalDB, 'f', 2, 64),
			s.Serving,
			strconv.FormatBool(s.Outage),
		}
		if envs != nil {
			rec = append(rec, envs[i].Area.String(), f(envs[i].SpeedKmh, 'f', 2, 64), strconv.FormatBool(s.Burst))
		}
		cw.Write(rec)
	}
	cw.Flush()
	return cw.Error()
}

// quotingRecords builds rows whose serving ids cover every case of
// csv.Writer's quoting test, between plain ones, with awkward numbers.
func quotingRecords() []channel.Record {
	servings := []string{
		"sat-001", "", `\.`, " lead", "\tlead", "\u00a0nbsp", "\u2003em", "a,b", `say "hi"`,
		"new\nline", "cr\rx", "crlf\r\n", "trail ", `\`, "..", "ünï", "cell-9",
	}
	vals := []float64{0, -0.0004, 2.5, 1e12, -85.125, 0.0625, math.NaN(), math.Inf(1), 1e300}
	recs := make([]channel.Record, 0, 2*len(servings))
	for i := 0; i < 2*len(servings); i++ {
		v := vals[i%len(vals)]
		s := channel.Sample{
			At:       time.Duration(i)*time.Second + 999*time.Microsecond,
			DownMbps: v, UpMbps: -v, RTT: time.Duration(i) * 1234567,
			LossDown: v / 7, LossUp: 1e-7, SignalDB: v, Serving: servings[i%len(servings)],
			Outage: i%3 == 0, Burst: i%2 == 1,
		}
		recs = append(recs, channel.Record{Sample: s,
			Env: channel.Env{At: s.At, Area: geo.AreaTypes[i%len(geo.AreaTypes)], SpeedKmh: v * 3}})
	}
	return recs
}

func TestRowWriterMatchesEncodingCSV(t *testing.T) {
	recs := quotingRecords()
	samples := make([]channel.Sample, len(recs))
	envs := make([]channel.Env, len(recs))
	for i, r := range recs {
		samples[i], envs[i] = r.Sample, r.Env
	}
	for _, network := range []channel.NetworkID{channel.StarlinkMobility, "odd,net"} {
		var got, want bytes.Buffer
		if err := WriteRecordsCSV(&got, network, recs); err != nil {
			t.Fatal(err)
		}
		if err := referenceCSV(&want, string(network), samples, envs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("WriteRecordsCSV(%s):\n%s\nwant\n%s", network, got.Bytes(), want.Bytes())
		}
		got.Reset()
		want.Reset()
		if err := WriteCSV(&got, &channel.Trace{Network: network, Samples: samples}); err != nil {
			t.Fatal(err)
		}
		if err := referenceCSV(&want, string(network), samples, nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("WriteCSV(%s):\n%s\nwant\n%s", network, got.Bytes(), want.Bytes())
		}
	}
}

// countingWriter records the length of every write it is handed.
type countingWriter struct{ sizes []int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return len(p), nil
}

// TestRowWriterWriteSizes pins the writes the row writer hands its
// writer to those of csv.Writer, which a per-write fault schedule counts.
func TestRowWriterWriteSizes(t *testing.T) {
	recs := append(reuseRecords(300), quotingRecords()...)
	samples := make([]channel.Sample, len(recs))
	envs := make([]channel.Env, len(recs))
	for i, r := range recs {
		samples[i], envs[i] = r.Sample, r.Env
	}
	var got, want countingWriter
	if err := WriteRecordsCSV(&got, channel.ATT, recs); err != nil {
		t.Fatal(err)
	}
	if err := referenceCSV(&want, string(channel.ATT), samples, envs); err != nil {
		t.Fatal(err)
	}
	if len(want.sizes) < 3 || !slices.Equal(got.sizes, want.sizes) {
		t.Fatalf("write sizes %v, want %v", got.sizes, want.sizes)
	}
}

// TestRowWriterAllocsFlat guards the row path: writing ten times the
// rows must not allocate more.
func TestRowWriterAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		recs := reuseRecords(n)
		for i := range recs {
			recs[i].Sample.Serving = "sat-01" // no quoting
		}
		return testing.AllocsPerRun(5, func() {
			if err := WriteRecordsCSV(io.Discard, channel.StarlinkMobility, recs); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(10000)
	if large > small {
		t.Fatalf("allocations grew from %v at 1k rows to %v at 10k", small, large)
	}
}
