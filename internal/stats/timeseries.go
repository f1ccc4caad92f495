package stats

import (
	"fmt"
	"time"
)

// Point is one observation in a time series.
type Point struct {
	At time.Duration // offset from the start of the series
	V  float64
}

// TimeSeries is an ordered sequence of timestamped observations.
type TimeSeries struct {
	Points []Point
}

// Add appends an observation. Points must be added in non-decreasing
// time order; Add panics otherwise, because every producer in this
// code base is a simulator with a monotonic clock and an out-of-order
// append indicates a bug.
func (ts *TimeSeries) Add(at time.Duration, v float64) {
	if n := len(ts.Points); n > 0 && at < ts.Points[n-1].At {
		panic(fmt.Sprintf("stats: out-of-order TimeSeries.Add: %v after %v", at, ts.Points[n-1].At))
	}
	ts.Points = append(ts.Points, Point{At: at, V: v})
}

// Values returns the observation values in order.
func (ts *TimeSeries) Values() []float64 {
	vs := make([]float64, len(ts.Points))
	for i, p := range ts.Points {
		vs[i] = p.V
	}
	return vs
}
