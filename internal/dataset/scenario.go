package dataset

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"satcell/internal/channel"
	"satcell/internal/mobility"
	"satcell/internal/networks"
)

// Scenario is a declarative campaign definition: which networks drive
// (a subset of a catalog), over which routes, running which test
// matrix, from which seed. The zero value — and DefaultScenario() — is
// the paper's campaign: all five built-in networks over the default
// five-state route corpus with the §3.2 test rotation. Every consumer
// of a dataset (generation, analyses, export, the cmd tools) iterates
// the scenario's networks instead of a closed enum, so a campaign like
// "MOB plus two custom carriers on rural routes" is a Scenario value,
// not a code change.
type Scenario struct {
	// Name labels the scenario in logs and manifests (optional).
	Name string
	// Catalog resolves network ids to model specs. Nil means the
	// default catalog (the built-in five plus everything registered
	// through the public API).
	Catalog *channel.Catalog
	// Networks is the ordered network subset to measure. Nil or empty
	// means every network of the catalog in registration order. Order
	// matters: it is the campaign iteration order, which the
	// determinism contract pins.
	Networks []channel.NetworkID
	// Routes is the drive corpus. Nil or empty means
	// mobility.DefaultRoutes().
	Routes []*mobility.Route
	// Kinds is the repeating test-window rotation. Nil or empty means
	// the paper's §3.2 rotation.
	Kinds []Kind
	// Seed, when non-zero, overrides Config.Seed so a scenario can pin
	// its campaign seed declaratively.
	Seed int64
}

// EffectiveSeed returns the seed a campaign of s asked for seed
// generates with: the scenario's Seed when set, else seed (also for a
// nil scenario). What records a campaign's seed (MANIFEST, CHECKPOINT,
// the campaign journal) records this one, so a re-analysis evaluates
// the tests with the seed that generated them.
func (s *Scenario) EffectiveSeed(seed int64) int64 {
	if s != nil && s.Seed != 0 {
		return s.Seed
	}
	return seed
}

// DefaultScenario returns the paper's campaign as a scenario value.
func DefaultScenario() *Scenario { return &Scenario{Name: "paper"} }

// catalog returns the scenario's catalog, defaulting to the global one
// (with the built-in model factories attached).
func (s *Scenario) catalog() *channel.Catalog {
	if s != nil && s.Catalog != nil {
		return s.Catalog
	}
	return networks.Default()
}

// networks resolves the ordered network list the campaign measures.
func (s *Scenario) networks() []channel.NetworkID {
	if s != nil && len(s.Networks) > 0 {
		out := make([]channel.NetworkID, len(s.Networks))
		copy(out, s.Networks)
		return out
	}
	return s.catalog().IDs()
}

// routes resolves the drive corpus.
func (s *Scenario) routes() []*mobility.Route {
	if s != nil && len(s.Routes) > 0 {
		return s.Routes
	}
	return mobility.DefaultRoutes()
}

// rotation resolves the test-window rotation.
func (s *Scenario) rotation() []Kind {
	if s != nil && len(s.Kinds) > 0 {
		return s.Kinds
	}
	return testRotation
}

// Validate checks the scenario against its catalog: every network must
// be registered with a model factory attached, the subset must be free
// of duplicates, and the resolved scenario must not be empty (an empty
// catalog, an empty route corpus or an empty rotation measures
// nothing). Generate panics on an invalid scenario, so callers taking
// user input should Validate first and surface the error.
func (s *Scenario) Validate() error {
	cat := s.catalog()
	nets := s.networks()
	if len(nets) == 0 {
		return fmt.Errorf("dataset: empty scenario: no networks (catalog is empty)")
	}
	seen := make(map[channel.NetworkID]bool, len(nets))
	for _, n := range nets {
		if seen[n] {
			return fmt.Errorf("dataset: scenario lists network %q twice", n)
		}
		seen[n] = true
		spec, ok := cat.Spec(n)
		if !ok {
			known := cat.IDs()
			sort.Slice(known, func(i, j int) bool { return known[i] < known[j] })
			return fmt.Errorf("dataset: scenario references unknown network %q (catalog has %v)", n, known)
		}
		if spec.Build == nil {
			return fmt.Errorf("dataset: network %q has no model factory attached", n)
		}
	}
	if len(s.routes()) == 0 {
		return fmt.Errorf("dataset: empty scenario: no routes")
	}
	if len(s.rotation()) == 0 {
		return fmt.Errorf("dataset: empty scenario: no test kinds")
	}
	return nil
}

// Kinds lists every test kind in rotation-table order (deduplicated),
// for flag grammars and docs.
var Kinds = []Kind{UDPDown, UDPUp, TCPDown, TCPDown4P, TCPDown8P, TCPUp, Ping}

// ParseKind converts a kind name ("udp-down") back to a Kind.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("dataset: unknown test kind %q", s)
}

// ParseNetworks parses the -networks flag grammar: a comma-separated
// list of catalog ids ("RM,MOB,ATT"). Whitespace around ids is
// tolerated; empty items, unknown ids and duplicates are errors.
func ParseNetworks(cat *channel.Catalog, spec string) ([]channel.NetworkID, error) {
	if cat == nil {
		cat = networks.Default()
	}
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("dataset: empty network list")
	}
	parts := strings.Split(spec, ",")
	out := make([]channel.NetworkID, 0, len(parts))
	seen := make(map[channel.NetworkID]bool, len(parts))
	for _, p := range parts {
		id, err := cat.Parse(p)
		if err != nil {
			return nil, fmt.Errorf("dataset: network list %q: %w", spec, err)
		}
		if seen[id] {
			return nil, fmt.Errorf("dataset: network list %q repeats %q", spec, id)
		}
		seen[id] = true
		out = append(out, id)
	}
	return out, nil
}

// ParseScenario parses the -scenario flag grammar: semicolon-separated
// key=value clauses.
//
//	networks=RM,MOB,USC;routes=i94-eauclaire,i90-dells;kinds=udp-down,udp-ping;seed=7;name=rural
//
// Keys: networks (comma-separated catalog ids), routes (comma-separated
// route names resolved against corpus, default mobility.DefaultRoutes),
// kinds (comma-separated test-kind names), seed (int64), name. Every
// key is optional — an empty spec is the catalog's default campaign —
// and unknown keys, unknown names and duplicate clauses are errors. The
// returned scenario is already validated.
func ParseScenario(cat *channel.Catalog, corpus []*mobility.Route, spec string) (*Scenario, error) {
	if cat == nil {
		cat = networks.Default()
	}
	if len(corpus) == 0 {
		corpus = mobility.DefaultRoutes()
	}
	sc := &Scenario{Catalog: cat}
	seen := map[string]bool{}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("dataset: scenario clause %q is not key=value", clause)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		if seen[key] {
			return nil, fmt.Errorf("dataset: scenario repeats clause %q", key)
		}
		seen[key] = true
		switch key {
		case "name":
			sc.Name = val
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: scenario seed %q: %w", val, err)
			}
			sc.Seed = n
		case "networks":
			nets, err := ParseNetworks(cat, val)
			if err != nil {
				return nil, err
			}
			sc.Networks = nets
		case "kinds":
			for _, part := range strings.Split(val, ",") {
				k, err := ParseKind(strings.TrimSpace(part))
				if err != nil {
					return nil, err
				}
				sc.Kinds = append(sc.Kinds, k)
			}
		case "routes":
			byName := make(map[string]*mobility.Route, len(corpus))
			names := make([]string, 0, len(corpus))
			for _, r := range corpus {
				byName[r.Name] = r
				names = append(names, r.Name)
			}
			for _, part := range strings.Split(val, ",") {
				name := strings.TrimSpace(part)
				r, ok := byName[name]
				if !ok {
					return nil, fmt.Errorf("dataset: unknown route %q (corpus has %v)", name, names)
				}
				sc.Routes = append(sc.Routes, r)
			}
		default:
			return nil, fmt.Errorf("dataset: unknown scenario key %q", key)
		}
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}
