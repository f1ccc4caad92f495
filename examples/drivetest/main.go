// Drivetest: a full virtual field trip. Drives one route with all five
// devices mounted, runs the measurement toolkit along the way, and
// reports per-area performance — the §5 coverage study in miniature.
package main

import (
	"fmt"

	"satcell"
	"satcell/internal/channel"
	"satcell/internal/dataset"
	"satcell/internal/geo"
	"satcell/internal/stats"
)

func main() {
	world := satcell.NewWorld(7)
	ds := world.GenerateDataset(satcell.DatasetOptions{Scale: 0.12})

	fmt.Printf("drove %.0f km across %d routes; %d network tests\n\n",
		ds.TotalKm, len(ds.Drives), len(ds.Tests))

	// Per-area mean UDP downlink throughput per network (Fig. 8 style).
	fmt.Printf("%-22s %10s %10s %10s\n", "network", "urban", "suburban", "rural")
	for _, n := range []channel.NetworkID{
		channel.StarlinkMobility, channel.StarlinkRoam,
		channel.ATT, channel.TMobile, channel.Verizon,
	} {
		var byArea [3][]float64
		for _, d := range ds.Drives {
			for _, r := range d.Observed[n] {
				byArea[r.Env.Area] = append(byArea[r.Env.Area], r.Sample.DownMbps)
			}
		}
		fmt.Printf("%-22s %7.0f %10.0f %10.0f   Mbps\n", n,
			stats.Mean(byArea[geo.Urban]),
			stats.Mean(byArea[geo.Suburban]),
			stats.Mean(byArea[geo.Rural]))
	}

	// Latency summary from the ping tests (Fig. 4 style).
	fmt.Printf("\n%-22s %10s %10s\n", "network", "median RTT", "p90 RTT")
	for _, n := range ds.Networks {
		var rtts []float64
		for _, t := range ds.Filter(dataset.ByNetwork(n), dataset.ByKind(dataset.Ping)) {
			rtts = append(rtts, t.RTTsMs...)
		}
		s := stats.Summarize(rtts)
		fmt.Printf("%-22s %7.0f ms %7.0f ms\n", n, s.Median, s.P90)
	}

	// The motivation picture: where each network wins along one drive.
	fig := world.Figure(ds, "fig1", satcell.FigureOptions{})
	fmt.Println()
	fmt.Print(fig.Render())
}
