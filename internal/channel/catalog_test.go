package channel

import (
	"strings"
	"testing"
)

// TestParseNetworkRoundTrip is the whole-catalog round-trip gate:
// every registered id must parse back to itself, and the error path
// must return the explicit invalid sentinel — never a valid network
// (the old int enum returned 0, which aliased StarlinkRoam).
func TestParseNetworkRoundTrip(t *testing.T) {
	for _, id := range DefaultCatalog().IDs() {
		got, err := ParseNetwork(id.String())
		if err != nil {
			t.Fatalf("ParseNetwork(%q): %v", id, err)
		}
		if got != id {
			t.Fatalf("ParseNetwork(%q) = %q", id, got)
		}
	}
	for _, bad := range []string{"", "bogus", "rm", "Network(0)", "RM,MOB"} {
		got, err := ParseNetwork(bad)
		if err == nil {
			t.Fatalf("ParseNetwork(%q) accepted", bad)
		}
		if got != NetworkInvalid {
			t.Fatalf("ParseNetwork(%q) error path returned %q, want the invalid sentinel", bad, got)
		}
		if got.Valid() || got == StarlinkRoam {
			t.Fatalf("error sentinel %q is mistakable for a valid network", got)
		}
	}
}

func TestDefaultCatalogBuiltins(t *testing.T) {
	ids := DefaultCatalog().IDs()
	if len(ids) < len(Networks) {
		t.Fatalf("default catalog has %d networks, want at least %d", len(ids), len(Networks))
	}
	// The built-in five must come first, in the paper's canonical
	// order — campaign iteration order is part of the determinism
	// contract with the seed dataset.
	for i, n := range Networks {
		if ids[i] != n {
			t.Fatalf("catalog order[%d] = %q, want %q", i, ids[i], n)
		}
	}
	wantOffsets := map[NetworkID]int64{
		StarlinkRoam: 101, StarlinkMobility: 102, ATT: 105, TMobile: 106, Verizon: 107,
	}
	for id, off := range wantOffsets {
		spec, ok := DefaultCatalog().Spec(id)
		if !ok {
			t.Fatalf("builtin %q missing", id)
		}
		if spec.SeedOffset != off {
			t.Fatalf("%q seed offset = %d, want %d (determinism contract)", id, spec.SeedOffset, off)
		}
	}
	sats := DefaultCatalog().ByClass(ClassSatellite)
	if len(sats) < 2 || sats[0] != StarlinkRoam || sats[1] != StarlinkMobility {
		t.Fatalf("satellite class = %v", sats)
	}
}

func TestCatalogRegisterValidation(t *testing.T) {
	c, err := NewCatalog()
	if err != nil {
		t.Fatal(err)
	}
	ok := Spec{ID: "X1", Name: "Example", Class: ClassCellular, SeedOffset: 900}
	if err := c.Register(ok); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if err := c.Register(ok); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("duplicate registration: %v", err)
	}
	for _, bad := range []Spec{
		{ID: "", Class: ClassCellular},
		{ID: "has space", Class: ClassCellular},
		{ID: "a,b", Class: ClassSatellite},
		{ID: "a;b", Class: ClassSatellite},
		{ID: "a=b", Class: ClassSatellite},
		{ID: NetworkID(strings.Repeat("x", 33)), Class: ClassCellular},
		{ID: "noclass"},
	} {
		if err := c.Register(bad); err == nil {
			t.Fatalf("spec %+v accepted", bad)
		}
	}
	if n := len(c.IDs()); n != 1 {
		t.Fatalf("catalog len = %d after rejected registrations", n)
	}
}

func TestCatalogCloneIsolation(t *testing.T) {
	base := DefaultCatalog().Clone()
	n := len(base.IDs())
	if err := base.Register(Spec{ID: "CLONE1", Name: "c", Class: ClassSatellite, SeedOffset: 901}); err != nil {
		t.Fatal(err)
	}
	if len(base.IDs()) != n+1 {
		t.Fatal("clone registration lost")
	}
	if DefaultCatalog().Has("CLONE1") {
		t.Fatal("clone registration leaked into the default catalog")
	}
}

func TestCatalogBuilderResolution(t *testing.T) {
	c := DefaultCatalog().Clone()
	if err := c.Register(Spec{ID: "NOBUILD", Name: "identity only", Class: ClassCellular, SeedOffset: 902}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Builder("NOBUILD", 7); err == nil {
		t.Fatal("identity-only spec produced a builder")
	}
	if _, err := c.Builder("missing", 7); err == nil {
		t.Fatal("unregistered id produced a builder")
	}
	if err := c.SetBuilder("missing", nil); err == nil {
		t.Fatal("SetBuilder accepted an unregistered id")
	}
}
