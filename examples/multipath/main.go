// Multipath: the §6 experiment end to end. Takes time-aligned Starlink
// and cellular traces from a simulated drive, replays them as virtual
// sessions on the discrete-event emulator, and compares single-path TCP
// against MPTCP with different schedulers and buffer sizes.
package main

import (
	"fmt"
	"time"

	"satcell"
	"satcell/internal/channel"
	"satcell/internal/mptcp"
	"satcell/internal/stats"
	"satcell/internal/trace"
	"satcell/internal/vsession"
)

const window = 180 * time.Second

func main() {
	world := satcell.NewWorld(21)
	ds := world.GenerateDataset(satcell.DatasetOptions{Scale: 0.1})

	// Pick a drive window where both networks are alive, and strip the
	// random loss: MpShell replays capacity + latency only.
	mobTr, vzTr := pickWindow(ds)
	fmt.Printf("window: MOB mean %.0f Mbps, VZ mean %.0f Mbps (%.0fs)\n\n",
		stats.Mean(mobTr.DownSeries()), stats.Mean(vzTr.DownSeries()), window.Seconds())

	mob := run(vsession.Config{}, mobTr)
	vz := run(vsession.Config{}, vzTr)
	fmt.Printf("single-path TCP over MOB : %6.1f Mbps\n", mob)
	fmt.Printf("single-path TCP over VZ  : %6.1f Mbps\n", vz)

	best := mob
	if vz > best {
		best = vz
	}
	for _, c := range []struct {
		name  string
		sched mptcp.Scheduler
		buf   int
	}{
		{"MPTCP blest, tuned buffer (20 MB)", mptcp.NewBLEST(), 20 << 20},
		{"MPTCP minrtt, tuned buffer (20 MB)", mptcp.NewMinRTT(), 20 << 20},
		{"MPTCP blest, default buffer (2 MB)", mptcp.NewBLEST(), 2 << 20},
	} {
		got := run(vsession.Config{RcvBuf: c.buf, Scheduler: c.sched}, mobTr, vzTr)
		fmt.Printf("%-36s: %6.1f Mbps (%+.0f%% vs better path)\n",
			c.name, got, (got/best-1)*100)
	}
	fmt.Println("\nWith a tuned connection buffer MPTCP aggregates both paths;")
	fmt.Println("with the default buffer the slow path head-of-line blocks the")
	fmt.Println("fast one — the paper's central §6 finding.")
}

func pickWindow(ds *satcell.Dataset) (mob, vz *channel.Trace) {
	for _, d := range ds.Drives {
		full := d.Trace(satcell.StarlinkMobility)
		dur := full.Duration()
		for off := time.Duration(0); off+window <= dur; off += window {
			m := trace.Replay(full.Slice(off, off+window))
			if stats.Mean(m.DownSeries()) < 60 {
				continue
			}
			v := trace.Replay(d.Trace(satcell.Verizon).Slice(off, off+window))
			if stats.Mean(v.DownSeries()) < 30 {
				continue
			}
			aligned := trace.Align(m, v)
			return aligned[0], aligned[1]
		}
	}
	panic("no usable window found; increase the dataset scale")
}

// run replays one download over the traces in virtual time (single-path
// TCP over one, MPTCP over two) behind a deep 1.5 MB bottleneck buffer,
// and returns its mean goodput.
func run(cfg vsession.Config, traces ...*channel.Trace) float64 {
	cfg.Duration, cfg.NoProbe = window, true
	for _, tr := range traces {
		cfg.Paths = append(cfg.Paths, vsession.PathSpec{Name: tr.Network.String(), Trace: tr, QueueBytes: 3 << 20 / 2})
	}
	res, err := vsession.Run(cfg)
	if err != nil {
		panic(err)
	}
	return res.MeanMbps
}
