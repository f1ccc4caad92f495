package channel

import (
	"testing"
	"time"

	"satcell/internal/geo"
)

func TestNetworksCanonicalOrder(t *testing.T) {
	want := []NetworkID{StarlinkRoam, StarlinkMobility, ATT, TMobile, Verizon}
	if len(Networks) != len(want) {
		t.Fatalf("Networks = %v", Networks)
	}
	for i, n := range want {
		if Networks[i] != n {
			t.Fatalf("Networks[%d] = %v, want %v", i, Networks[i], n)
		}
	}
}

func TestNetworkClassification(t *testing.T) {
	for _, n := range Networks {
		if cl := n.Class(); cl != ClassCellular && cl != ClassSatellite {
			t.Fatalf("%v must be exactly one of cellular/satellite", n)
		}
	}
	if NetworkInvalid.String() != "invalid" {
		t.Fatal("invalid network String()")
	}
	if NetworkInvalid.Class() != ClassUnknown || NetworkInvalid.Valid() {
		t.Fatal("invalid sentinel must classify as nothing")
	}
	if n := NetworkID("no-such-net"); n.Class() != ClassUnknown {
		t.Fatalf("unregistered id class = %v", n.Class())
	}
}

func TestTraceDurationAndSeries(t *testing.T) {
	tr := &Trace{Network: StarlinkMobility}
	if tr.Duration() != 0 {
		t.Fatal("empty trace duration")
	}
	for i := 0; i < 5; i++ {
		tr.Samples = append(tr.Samples, Sample{
			At:       time.Duration(i) * time.Second,
			DownMbps: float64(10 * i),
			UpMbps:   float64(i),
		})
	}
	if tr.Duration() != 4*time.Second {
		t.Fatalf("duration = %v", tr.Duration())
	}
	ds, us := tr.DownSeries(), tr.UpSeries()
	if len(ds) != 5 || ds[3] != 30 || us[2] != 2 {
		t.Fatalf("series wrong: %v %v", ds, us)
	}
}

func TestTraceAtBinarySearch(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < 100; i++ {
		tr.Samples = append(tr.Samples, Sample{
			At: time.Duration(i) * time.Second, DownMbps: float64(i),
		})
	}
	for _, c := range []struct {
		t    time.Duration
		want float64
	}{
		{0, 0}, {500 * time.Millisecond, 0}, {1 * time.Second, 1},
		{50*time.Second + 999*time.Millisecond, 50}, {99 * time.Second, 99},
		{time.Hour, 99}, {-time.Second, 0},
	} {
		if got := tr.At(c.t).DownMbps; got != c.want {
			t.Fatalf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestTraceSliceRebasing(t *testing.T) {
	tr := &Trace{Network: Verizon}
	for i := 0; i < 10; i++ {
		tr.Samples = append(tr.Samples, Sample{At: time.Duration(i) * time.Second, DownMbps: float64(i)})
	}
	sl := tr.Slice(3*time.Second, 7*time.Second)
	if len(sl.Samples) != 4 || sl.Samples[0].At != 0 || sl.Samples[0].DownMbps != 3 {
		t.Fatalf("slice wrong: %+v", sl.Samples)
	}
	if sl.Network != Verizon {
		t.Fatal("slice lost network")
	}
}

func TestEnvAndRecordComposition(t *testing.T) {
	env := Env{
		At:       time.Minute,
		Pos:      geo.LatLon{Lat: 44, Lon: -90},
		SpeedKmh: 88,
		Area:     geo.Rural,
	}
	rec := Record{Env: env, Sample: Sample{DownMbps: 120, Burst: true}}
	if rec.Env.Area != geo.Rural || rec.Sample.DownMbps != 120 || !rec.Sample.Burst {
		t.Fatal("record composition broken")
	}
}
