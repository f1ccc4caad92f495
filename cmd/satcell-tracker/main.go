// satcell-tracker plays the role of 5G Tracker (§3.2): it samples the
// modem/dish state of one simulated device driving a route and writes
// JSONL records (time, GPS, speed, network type, signal, serving cell
// or satellite).
//
//	satcell-tracker -network MOB -route i94-eauclaire -out trace.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"satcell/internal/channel"
	"satcell/internal/geo"
	"satcell/internal/meas/tracker"
	"satcell/internal/mobility"
	"satcell/internal/networks"
	"satcell/internal/obs"
	"satcell/internal/store"
)

var logger = obs.NewLogger("satcell-tracker")

// driveProvider adapts a drive + channel model to tracker.Provider.
type driveProvider struct {
	network channel.NetworkID
	fixes   []mobility.Fix
	model   channel.Model
}

// Info implements tracker.Provider.
func (p *driveProvider) Info(at time.Duration) (tracker.Record, error) {
	idx := int(at / time.Second)
	if idx >= len(p.fixes) {
		return tracker.Record{}, fmt.Errorf("drive ended at %ds", len(p.fixes))
	}
	f := p.fixes[idx]
	s := p.model.Sample(channel.Env{At: f.At, Pos: f.Pos, SpeedKmh: f.SpeedKmh, Area: f.Area})
	return tracker.Record{
		Network:  p.network.String(),
		NetType:  p.network.Class().String(),
		Lat:      f.Pos.Lat,
		Lon:      f.Pos.Lon,
		SpeedKmh: f.SpeedKmh,
		SignalDB: s.SignalDB,
		Serving:  s.Serving,
		Outage:   s.Outage,
	}, nil
}

func main() {
	cat := networks.Default()
	var (
		network = flag.String("network", channel.StarlinkMobility.String(),
			fmt.Sprintf("device network: one of %v", cat.IDs()))
		route  = flag.String("route", "", "route name (default: first route of the corpus)")
		seed   = flag.Int64("seed", 42, "world seed")
		dur    = flag.Duration("t", 10*time.Minute, "tracking duration")
		period = flag.Duration("i", time.Second, "sampling period")
		out    = flag.String("out", "", "output JSONL file (default stdout)")
	)
	flag.Parse()

	n, err := cat.Parse(*network)
	if err != nil {
		logger.Fatalf("%v", err)
	}
	r := pickRoute(*route)
	gaz := geo.DefaultGazetteer()
	fixes := mobility.Drive(r, gaz, rand.New(rand.NewSource(*seed)))
	build, err := cat.Builder(n, *seed)
	if err != nil {
		logger.Fatalf("%v", err)
	}
	model := build()

	tr := tracker.New(&driveProvider{network: n, fixes: fixes, model: model}, *period)
	maxDur := time.Duration(len(fixes)) * time.Second
	if *dur > maxDur {
		*dur = maxDur
	}
	if err := tr.SampleRange(*dur); err != nil {
		logger.Fatalf("%v", err)
	}

	// File output goes through the crash-safe store: atomic rename plus
	// checked close/flush, so ENOSPC (or any write failure) surfaces as
	// an error instead of a silently truncated trace with exit code 0.
	if *out != "" {
		err = store.WriteFileAtomicFS(nil, *out, func(w io.Writer) error {
			return tr.WriteJSONL(w)
		})
	} else {
		err = tr.WriteJSONL(os.Stdout)
	}
	if err != nil {
		logger.Fatalf("%v", err)
	}
	logger.Infof("%d records (%s on %s)", len(tr.Records()), n, r.Name)
}

func pickRoute(name string) *mobility.Route {
	routes := mobility.DefaultRoutes()
	if name == "" {
		return routes[0]
	}
	for _, r := range routes {
		if r.Name == name {
			return r
		}
	}
	names := make([]string, len(routes))
	for i, r := range routes {
		names[i] = r.Name
	}
	logger.Fatalf("unknown route %q (have %v)", name, names)
	return nil
}
