package testutil

import (
	"slices"
	"testing"
	"time"
)

// deliveries is a scripted transport: RunUntil moves the clock, and
// delivered counts the bytes due by then.
type deliveries struct {
	now time.Duration
	at  map[time.Duration]int64
}

func (d *deliveries) RunUntil(t time.Duration) { d.now = t }

func (d *deliveries) delivered() int64 {
	var n int64
	for at, b := range d.at {
		if at <= d.now {
			n += b
		}
	}
	return n
}

// A delivery due at a second's boundary opens the next second; the
// series ends with the last delivering second unless data arrives at the
// final instant; an idle transfer has one zero point.
func TestGoodputSeriesBoundariesAndTruncation(t *testing.T) {
	for _, c := range []struct {
		name string
		at   map[time.Duration]int64
		want []float64
	}{
		{"truncated", map[time.Duration]int64{500 * time.Millisecond: 1000, time.Second: 500}, []float64{0.008, 0.004}},
		{"final instant", map[time.Duration]int64{500 * time.Millisecond: 1000, 4 * time.Second: 1}, []float64{0.008, 0, 0, 0}},
		{"idle", nil, []float64{0}},
	} {
		d := &deliveries{at: c.at}
		if got := GoodputSeries(d, 4, d.delivered); !slices.Equal(got, c.want) {
			t.Errorf("%s: series %v, want %v", c.name, got, c.want)
		}
		if d.now != 4*time.Second {
			t.Errorf("%s: engine left at %v, want 4s", c.name, d.now)
		}
	}
}
