package channel

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Class partitions networks into the two service families the study
// compares. Analyses pool networks by class (e.g. "best cellular"), so
// every registered network must declare one.
type Class int

const (
	// ClassUnknown is the zero value; Register rejects it.
	ClassUnknown Class = iota
	// ClassSatellite marks LEO satellite services (Starlink plans and
	// any custom constellation).
	ClassSatellite
	// ClassCellular marks terrestrial cellular carriers.
	ClassCellular
)

// String names the class (used for tracker net_type fields and docs).
func (c Class) String() string {
	switch c {
	case ClassSatellite:
		return "satellite"
	case ClassCellular:
		return "cellular"
	default:
		return "unknown"
	}
}

// BuildFunc constructs the channel.Builder for one campaign. It
// receives the campaign seed (dataset Config.Seed) and must derive the
// model's own seed deterministically from it — the built-ins use
// campaignSeed + Spec.SeedOffset — so the same campaign seed always
// reproduces the same channel streams regardless of worker count or
// generation order.
type BuildFunc func(campaignSeed int64) Builder

// Spec describes one network in a Catalog: its identity (id, display
// name, class), the determinism contract (seed offset) and the model
// factory. The paper's five networks ship as built-in specs; new
// carriers, plans or constellations register additional ones without
// any edits to the model or campaign packages.
type Spec struct {
	// ID is the short identifier used in figures, CSV schemas and flag
	// grammars. It must be non-empty and free of whitespace and the
	// scenario-grammar separators (",", ";", "=").
	ID NetworkID
	// Name is the human-readable display name ("Starlink Roam").
	Name string
	// Class declares the service family; Register rejects ClassUnknown.
	Class Class
	// SeedOffset is added to the campaign seed to derive the model
	// seed. Distinct offsets keep per-network random streams
	// independent; the built-ins pin the offsets the original
	// generator used (101, 102, 105, 106, 107), which is what keeps
	// the default campaign bit-identical to the seed dataset.
	SeedOffset int64
	// Build is the model factory. It may be nil for identity-only
	// specs (parsing, classification); generation requires it.
	Build BuildFunc
}

// validateID rejects ids that would be ambiguous in CSV schemas or the
// scenario flag grammar.
func validateID(id NetworkID) error {
	if id == NetworkInvalid {
		return fmt.Errorf("channel: empty network id")
	}
	if len(id) > 32 {
		return fmt.Errorf("channel: network id %q longer than 32 bytes", id)
	}
	if strings.ContainsAny(string(id), ",;= \t\r\n\"") {
		return fmt.Errorf("channel: network id %q contains a separator or whitespace", id)
	}
	return nil
}

// Catalog is an ordered, concurrency-safe registry of network specs.
// Registration order is significant: campaigns iterate networks in
// catalog order, so the order is part of the determinism contract.
type Catalog struct {
	mu    sync.RWMutex
	order []NetworkID
	specs map[NetworkID]Spec
}

// NewCatalog builds a catalog from the given specs, in order.
func NewCatalog(specs ...Spec) (*Catalog, error) {
	c := &Catalog{specs: make(map[NetworkID]Spec, len(specs))}
	for _, s := range specs {
		if err := c.Register(s); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Register adds a spec to the catalog. Duplicate ids, empty or
// malformed ids, and ClassUnknown are rejected.
func (c *Catalog) Register(s Spec) error {
	if err := validateID(s.ID); err != nil {
		return err
	}
	if s.Class != ClassSatellite && s.Class != ClassCellular {
		return fmt.Errorf("channel: network %q must declare ClassSatellite or ClassCellular", s.ID)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.specs == nil {
		c.specs = make(map[NetworkID]Spec)
	}
	if _, dup := c.specs[s.ID]; dup {
		return fmt.Errorf("channel: network %q already registered", s.ID)
	}
	c.specs[s.ID] = s
	c.order = append(c.order, s.ID)
	return nil
}

// SetBuilder attaches (or replaces) the model factory of an already
// registered spec. It exists so the model packages can wire factories
// onto the identity-only built-in specs without an import cycle.
func (c *Catalog) SetBuilder(id NetworkID, b BuildFunc) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.specs[id]
	if !ok {
		return fmt.Errorf("channel: cannot attach builder: network %q not registered", id)
	}
	s.Build = b
	c.specs[id] = s
	return nil
}

// Spec returns the spec of one network.
func (c *Catalog) Spec(id NetworkID) (Spec, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.specs[id]
	return s, ok
}

// Has reports whether id is registered.
func (c *Catalog) Has(id NetworkID) bool {
	_, ok := c.Spec(id)
	return ok
}

// IDs returns every registered network id in registration order.
func (c *Catalog) IDs() []NetworkID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]NetworkID, len(c.order))
	copy(out, c.order)
	return out
}

// ByClass returns the registered ids of one class, in registration order.
func (c *Catalog) ByClass(cl Class) []NetworkID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []NetworkID
	for _, id := range c.order {
		if c.specs[id].Class == cl {
			out = append(out, id)
		}
	}
	return out
}

// Parse converts a short id string to a registered NetworkID. On
// failure it returns the explicit NetworkInvalid sentinel and an error
// naming the known ids.
func (c *Catalog) Parse(s string) (NetworkID, error) {
	id := NetworkID(strings.TrimSpace(s))
	if c.Has(id) {
		return id, nil
	}
	known := c.IDs()
	sort.Slice(known, func(i, j int) bool { return known[i] < known[j] })
	return NetworkInvalid, fmt.Errorf("channel: unknown network %q (catalog has %v)", s, known)
}

// Builder resolves the model factory of one network for a campaign
// seed. Identity-only specs (nil Build) are a hard error: they can be
// parsed and classified but not simulated.
func (c *Catalog) Builder(id NetworkID, campaignSeed int64) (Builder, error) {
	s, ok := c.Spec(id)
	if !ok {
		return nil, fmt.Errorf("channel: network %q not registered", id)
	}
	if s.Build == nil {
		return nil, fmt.Errorf("channel: network %q has no model factory attached", id)
	}
	return s.Build(campaignSeed), nil
}

// Clone returns an independent copy of the catalog. Scenario authors
// clone the default catalog to add experiment-local networks without
// mutating global state.
func (c *Catalog) Clone() *Catalog {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := &Catalog{
		order: make([]NetworkID, len(c.order)),
		specs: make(map[NetworkID]Spec, len(c.specs)),
	}
	copy(out.order, c.order)
	for id, s := range c.specs {
		out.specs[id] = s
	}
	return out
}

// defaultCatalog holds the paper's five networks as identity specs.
// Their model factories are attached by internal/networks at init time
// (the channel package cannot import the leo/cell model packages), and
// custom networks registered through the public API land here too.
var defaultCatalog = func() *Catalog {
	c, err := NewCatalog(
		Spec{ID: StarlinkRoam, Name: "Starlink Roam", Class: ClassSatellite, SeedOffset: 101},
		Spec{ID: StarlinkMobility, Name: "Starlink Mobility", Class: ClassSatellite, SeedOffset: 102},
		Spec{ID: ATT, Name: "AT&T", Class: ClassCellular, SeedOffset: 105},
		Spec{ID: TMobile, Name: "T-Mobile", Class: ClassCellular, SeedOffset: 106},
		Spec{ID: Verizon, Name: "Verizon", Class: ClassCellular, SeedOffset: 107},
	)
	if err != nil {
		panic(err)
	}
	return c
}()

// DefaultCatalog returns the process-wide catalog: the paper's five
// built-in networks plus everything registered through it. Scenarios
// default to it; ParseNetwork and the NetworkID class helpers consult
// it.
func DefaultCatalog() *Catalog { return defaultCatalog }
