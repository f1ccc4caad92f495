package networks

import (
	"testing"
	"time"

	"satcell/internal/cell"
	"satcell/internal/channel"
	"satcell/internal/geo"
	"satcell/internal/leo"
)

// TestBuiltinBuildersAttached: every built-in spec must be generatable
// out of the box — the init wiring is the bridge between the identity
// catalog and the model packages.
func TestBuiltinBuildersAttached(t *testing.T) {
	for _, id := range channel.Networks {
		b, err := Default().Builder(id, 42)
		if err != nil {
			t.Fatalf("builtin %q: %v", id, err)
		}
		m := b()
		if m.Network() != id {
			t.Fatalf("builder for %q built a model for %q", id, m.Network())
		}
	}
}

// TestBuiltinBuilderSeedContract: the catalog-built models must emit
// exactly the streams the pre-catalog generator produced, i.e. the same
// as constructing the models directly with the historical seeds
// (campaign seed +101/+102 for the plans, +103+enum for the carriers).
func TestBuiltinBuilderSeedContract(t *testing.T) {
	const campaignSeed = int64(7)
	cons := leo.NewConstellation(leo.StarlinkShell())
	direct := map[channel.NetworkID]channel.Model{
		channel.StarlinkRoam:     leo.ModelBuilder(leo.RoamPlan(), cons, campaignSeed+101)(),
		channel.StarlinkMobility: leo.ModelBuilder(leo.MobilityPlan(), cons, campaignSeed+102)(),
	}
	for i, carrier := range cell.Carriers() {
		direct[carrier.Network] = cell.NewModel(carrier, campaignSeed+105+int64(i))
	}
	env := func(at int) channel.Env {
		return channel.Env{
			At:       time.Duration(at) * time.Second,
			Pos:      geo.LatLon{Lat: 44.8, Lon: -91.5},
			SpeedKmh: 90,
			Area:     geo.Rural,
		}
	}
	for id, want := range direct {
		b, err := Default().Builder(id, campaignSeed)
		if err != nil {
			t.Fatalf("%q: %v", id, err)
		}
		got := b()
		for at := 0; at < 120; at++ {
			w, g := want.Sample(env(at)), got.Sample(env(at))
			if w != g {
				t.Fatalf("%q sample %d diverged:\ncatalog %+v\ndirect  %+v", id, at, g, w)
			}
		}
	}
}

// TestRegisterCustomNetworks: a plan and a carrier outside the paper
// must be registrable and generatable through the catalog alone.
func TestRegisterCustomNetworks(t *testing.T) {
	cat := Default().Clone()
	plan := leo.MobilityPlan()
	plan.Network = "SL3"
	plan.PriorityFactor = 1.2
	if err := RegisterSatellite(cat, "Starlink Priority", plan, 1001); err != nil {
		t.Fatal(err)
	}
	carrier := cell.Carriers()[0]
	carrier.Network = "USC"
	if err := RegisterCellular(cat, "US Cellular", carrier, 1002); err != nil {
		t.Fatal(err)
	}
	for _, id := range []channel.NetworkID{"SL3", "USC"} {
		b, err := cat.Builder(id, 9)
		if err != nil {
			t.Fatalf("%q: %v", id, err)
		}
		if got := b().Network(); got != id {
			t.Fatalf("%q model reports %q", id, got)
		}
	}
	var sats []channel.NetworkID
	for _, id := range cat.IDs() {
		if spec, _ := cat.Spec(id); spec.Class == channel.ClassSatellite {
			sats = append(sats, id)
		}
	}
	if sats[len(sats)-1] != "SL3" {
		t.Fatalf("satellites = %v", sats)
	}
	// Missing ids are rejected before touching the catalog.
	if err := RegisterSatellite(cat, "anon", leo.Plan{}, 1003); err == nil {
		t.Fatal("satellite plan without id accepted")
	}
	if err := RegisterCellular(cat, "anon", cell.Carrier{}, 1004); err == nil {
		t.Fatal("carrier without id accepted")
	}
}
