package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"satcell/internal/channel"
	"satcell/internal/dataset"
	"satcell/internal/emu"
	"satcell/internal/mptcp"
	"satcell/internal/tcp"
	"satcell/internal/vsession"
)

// A scenario that did not measure Verizon has no aligned MOB/ATT/VZ
// windows: every multipath figure must say so instead of coming back
// empty and silent.
func TestMultipathFiguresNoteWithoutVerizon(t *testing.T) {
	ds := dataset.Generate(dataset.Config{Seed: 42, Scale: 0.02, Scenario: &dataset.Scenario{
		Networks: []channel.NetworkID{channel.StarlinkMobility, channel.ATT},
	}})
	a := NewAnalyzer(ds)
	mp := MultipathConfig{WindowSeconds: 8, Windows: 1}
	for _, f := range []*Figure{a.Figure10(mp), a.Figure11(mp), a.MultipathAblation(mp)} {
		if len(f.Series) != 0 || !slices.Contains(f.Notes, noWindows) {
			t.Errorf("%s: %d series, notes %q; want none and %q", f.ID, len(f.Series), f.Notes, noWindows)
		}
	}
}

// replayTestTrace is a 1 s-grid replay trace: rate Mbps with a 40 ms
// RTT for the first live seconds, then outage to the end of secs.
func replayTestTrace(net channel.NetworkID, rate float64, live, secs int) *channel.Trace {
	tr := &channel.Trace{Network: net}
	for i := 0; i <= secs; i++ {
		s := channel.Sample{At: time.Duration(i) * time.Second, DownMbps: rate, UpMbps: rate / 5, RTT: 40 * time.Millisecond}
		if i >= live {
			s.DownMbps, s.UpMbps, s.Outage = 0, 0, true
		}
		tr.Samples = append(tr.Samples, s)
	}
	return tr
}

// The replays moved from hand-wired transports onto vsession; fig11
// plots goodputSeries, which must be exactly the series the transport
// itself records — including its shorter length when the window's last
// seconds deliver nothing, and its single point when nothing arrives —
// and fig10's means must be exactly MeanGoodputMbps.
func TestReplayMatchesTransportSeries(t *testing.T) {
	const secs = 10
	dur := secs * time.Second
	for _, live := range []int{0, 4, secs + 1} {
		leo := replayTestTrace(channel.StarlinkMobility, 80, live, secs)
		cell := replayTestTrace(channel.ATT, 30, live, secs)
		window := []*channel.Trace{leo, cell}

		eng := emu.NewEngine()
		dp := emu.NewDuplexPath(eng, leo, emu.PathConfig{QueueBytes: replayQueue})
		single := tcp.NewDownload(eng, dp, 1, tcp.Config{})
		single.Start()
		eng.RunUntil(dur)
		single.Stop()

		eng = emu.NewEngine()
		dps := []*emu.DuplexPath{
			emu.NewDuplexPath(eng, leo, emu.PathConfig{QueueBytes: replayQueue}),
			emu.NewDuplexPath(eng, cell, emu.PathConfig{QueueBytes: replayQueue}),
		}
		multi := mptcp.NewConn(eng, dps, 1, mptcp.Config{RcvBuf: tunedBuf, Scheduler: mptcp.NewBLEST()})
		multi.Start()
		eng.RunUntil(dur)
		multi.Stop()

		for _, c := range []struct {
			name string
			cfg  vsession.Config
			want []float64
			mean float64
		}{
			{"tcp", fig10Setups[2].config(42, dur, window), single.Goodput().Values(), single.MeanGoodputMbps(dur)},
			{"mptcp", fig10Setups[3].config(42, dur, window), multi.Goodput().Values(), multi.MeanGoodputMbps(dur)},
		} {
			res, err := vsession.Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := goodputSeries(res); !slices.Equal(got, c.want) {
				t.Errorf("live %ds %s: series %v, transport recorded %v", live, c.name, got, c.want)
			}
			if res.MeanMbps != c.mean {
				t.Errorf("live %ds %s: mean %v, transport %v", live, c.name, res.MeanMbps, c.mean)
			}
		}
		if live == 4 && len(single.Goodput().Values()) >= secs {
			t.Errorf("live 4s: transport series has %d points; the test no longer covers a short series",
				len(single.Goodput().Values()))
		}
	}
}

// A delivery at a window's final instant lands in Result.Bytes after the
// last row was taken; the transport's own series then runs the full
// window, its quiet seconds included.
func TestGoodputSeriesFinalInstantDelivery(t *testing.T) {
	rows := []vsession.Second{{T: 1, Bytes: 125000, Mbps: 1}, {T: 2}, {T: 3}}
	for _, c := range []struct {
		bytes int64
		rows  []vsession.Second
		want  []float64
	}{
		{125000, rows, []float64{1}},
		{125000 + 1500, rows, []float64{1, 0, 0}},
		{0, []vsession.Second{{T: 1}, {T: 2}}, []float64{0}},
	} {
		if got := goodputSeries(&vsession.Result{Seconds: c.rows, Bytes: c.bytes}); !slices.Equal(got, c.want) {
			t.Errorf("bytes %d: series %v, want %v", c.bytes, got, c.want)
		}
	}
}

// replayAll returns each result at its config's index whatever the
// worker count, and a replay that panics inside the pool resurfaces on
// the calling goroutine, naming its config, where the caller can
// recover it instead of the process dying.
func TestReplayAllIndexedAndPanicFence(t *testing.T) {
	const secs = 4
	dur := secs * time.Second
	window := []*channel.Trace{
		replayTestTrace(channel.StarlinkMobility, 80, secs, secs),
		replayTestTrace(channel.ATT, 30, 2, secs),
	}
	// MOB, MOB+ATT, ATT and MOB+ATT-untuned over the test window.
	batch := func() []vsession.Config {
		var cfgs []vsession.Config
		for _, i := range []int{2, 3, 0, 5} {
			cfgs = append(cfgs, fig10Setups[i].config(42, dur, window))
		}
		return cfgs
	}
	for _, workers := range []int{0, 1, 2, 8} {
		got := replayAll(batch(), workers)
		for i, cfg := range batch() {
			want, err := vsession.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got[i].Digest != want.Digest {
				t.Errorf("workers %d: result %d digest %s, serial replay %s", workers, i, got[i].Digest, want.Digest)
			}
		}
	}

	cfgs := batch()
	cfgs[2].Paths = nil
	for _, workers := range []int{1, 2, 8} {
		p := func() (p any) {
			defer func() { p = recover() }()
			replayAll(cfgs, workers)
			return nil
		}()
		if msg := fmt.Sprint(p); p == nil || !strings.Contains(msg, "replay config 2") || !strings.Contains(msg, "at least one path") {
			t.Errorf("workers %d: recovered %v, want a panic naming config 2 and its error", workers, p)
		}
	}
}
