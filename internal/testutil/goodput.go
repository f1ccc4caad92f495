package testutil

import "time"

// MeanMbps is a transfer's mean goodput: bytes delivered over elapsed,
// in the expression vsession uses for Result.MeanMbps.
func MeanMbps(bytes int64, elapsed time.Duration) float64 {
	return float64(bytes*8) / elapsed.Seconds() / 1e6
}

// GoodputSeries runs eng from virtual zero to secs seconds in
// one-second steps and returns the per-second goodput, in Mbps, of the
// transport whose in-order byte count delivered reads. Second k counts
// the bytes delivered in [k s, (k+1) s): each step stops 1 ns short of
// the next boundary, so a delivery due at a boundary lands in the
// second it opens, as it does in vsession's per-second rows.
//
// The series ends with the last second that delivered data and has at
// least one point; a delivery at the final instant secs s extends it to
// all secs seconds. This is how fig11 truncates a replay's series
// (core.goodputSeries). Stepping the engine changes nothing it does:
// the steps only read delivered between events.
func GoodputSeries(eng interface{ RunUntil(time.Duration) }, secs int, delivered func() int64) []float64 {
	ys := make([]float64, secs)
	n := 1
	var prev int64
	for k := range secs {
		eng.RunUntil(time.Duration(k+1)*time.Second - 1)
		b := delivered()
		ys[k] = float64((b-prev)*8) / 1e6
		if b > prev {
			n = k + 1
		}
		prev = b
	}
	eng.RunUntil(time.Duration(secs) * time.Second)
	if delivered() > prev {
		n = secs
	}
	return ys[:n]
}
