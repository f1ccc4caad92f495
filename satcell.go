// Package satcell reproduces "LEO Satellite vs. Cellular Networks:
// Exploring the Potential for Synergistic Integration" (CoNEXT
// Companion 2023) as a Go library: a synthetic five-state drive world
// with Starlink-like LEO and cellular channel models, the paper's
// measurement toolkit (iPerf-style throughput tests, UDP-Ping, a
// tracker), a Mahimahi/MpShell-style emulator with TCP and MPTCP
// transports, and an analysis harness that regenerates every figure of
// the paper's evaluation.
//
// Quick start:
//
//	world := satcell.NewWorld(42)
//	ds := world.GenerateDataset(satcell.DatasetOptions{Scale: 0.1})
//	figs, _, err := world.Figures(ds, satcell.FigureOptions{})
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Println(figs["fig3a"].Render())
//
// The heavy lifting lives in the internal packages (internal/leo,
// internal/cell, internal/emu, internal/tcp, internal/mptcp, ...); this
// package is the stable entry point used by the example programs, the
// command-line tools and the benchmark harness.
package satcell

import (
	"context"
	"io"
	"slices"

	"satcell/internal/cell"
	"satcell/internal/channel"
	"satcell/internal/core"
	"satcell/internal/dataset"
	"satcell/internal/leo"
	"satcell/internal/networks"
	"satcell/internal/obs"
	"satcell/internal/trace"
)

// Re-exported core types, so callers only import this package.
type (
	// Dataset is the generated driving dataset (tests + drive traces).
	Dataset = dataset.Dataset
	// Test is one network test of the campaign.
	Test = dataset.Test
	// Figure is one reproduced paper figure with its KPIs.
	Figure = core.Figure
	// ExperimentRow is one line of the paper-vs-measured record.
	ExperimentRow = core.ExperimentRow
	// Completeness is the ingestion certificate of a streamed figure
	// run: shards planned/scanned/retried/quarantined, itemised.
	Completeness = core.Completeness
	// NetworkID identifies one measured service: a catalog id like
	// "RM" or "MOB", open to custom registrations.
	NetworkID = channel.NetworkID
	// Catalog is an ordered registry of network specs; DefaultCatalog
	// holds the paper's five built-ins plus custom registrations.
	Catalog = channel.Catalog
	// NetworkSpec describes one catalog entry (id, display name,
	// class, seed offset, model factory).
	NetworkSpec = channel.Spec
	// Scenario declares a measurement campaign: network subset, route
	// mix, test matrix and seed. The zero value is the paper's campaign.
	Scenario = dataset.Scenario
	// SatellitePlan parameterizes a Starlink-style service plan for
	// custom satellite networks.
	SatellitePlan = leo.Plan
	// Carrier parameterizes a cellular operator for custom networks.
	Carrier = cell.Carrier
	// Trace is a time series of channel conditions for one network.
	Trace = channel.Trace
)

// The five measured networks.
const (
	StarlinkRoam     = channel.StarlinkRoam
	StarlinkMobility = channel.StarlinkMobility
	ATT              = channel.ATT
	TMobile          = channel.TMobile
	Verizon          = channel.Verizon
)

// DefaultCatalog returns the process-wide network catalog: the built-in
// five with their model factories attached, plus everything registered
// through RegisterSatellitePlan / RegisterCellularCarrier. Clone it to
// experiment without mutating global state.
func DefaultCatalog() *Catalog { return networks.Default() }

// RoamPlan returns the built-in Starlink Roam plan parameters, a
// convenient base for custom satellite plans.
func RoamPlan() SatellitePlan { return leo.RoamPlan() }

// MobilityPlan returns the built-in Starlink Mobility plan parameters.
func MobilityPlan() SatellitePlan { return leo.MobilityPlan() }

// Carriers returns the built-in cellular carrier parameter sets, a
// convenient base for custom carriers.
func Carriers() []Carrier { return cell.Carriers() }

// RegisterSatellitePlan registers a custom satellite network in cat
// (nil means the default catalog). The plan's Network field is the new
// catalog id; seedOffset separates the network's random streams from
// every other network of a campaign — pick a value well clear of the
// built-ins (>= 1000).
func RegisterSatellitePlan(cat *Catalog, name string, plan SatellitePlan, seedOffset int64) error {
	return networks.RegisterSatellite(cat, name, plan, seedOffset)
}

// RegisterCellularCarrier registers a custom cellular network in cat
// (nil means the default catalog).
func RegisterCellularCarrier(cat *Catalog, name string, carrier Carrier, seedOffset int64) error {
	return networks.RegisterCellular(cat, name, carrier, seedOffset)
}

// ParseNetworks parses a comma-separated network-id list ("RM,MOB")
// against cat (nil means the default catalog).
func ParseNetworks(cat *Catalog, spec string) ([]NetworkID, error) {
	return dataset.ParseNetworks(cat, spec)
}

// ParseScenario parses the declarative scenario grammar
// ("networks=RM,MOB;kinds=udp-down;seed=7;name=x") against cat (nil
// means the default catalog). The returned scenario is validated.
func ParseScenario(cat *Catalog, spec string) (*Scenario, error) {
	return dataset.ParseScenario(cat, nil, spec)
}

// World is a reproducible instance of the study: everything derives
// deterministically from its seed.
type World struct {
	seed int64
}

// NewWorld creates a world from a seed.
func NewWorld(seed int64) *World { return &World{seed: seed} }

// DatasetOptions tunes dataset generation.
type DatasetOptions struct {
	// Scale scales the campaign: 1.0 reproduces the paper's ~3,800 km
	// and ~1,239 tests; the default 0.1 generates a tenth of that.
	Scale float64
	// Scenario declares the campaign (network subset, routes, test
	// matrix, seed). Nil runs the paper's default campaign. Invalid
	// scenarios make GenerateDataset panic; validate user input with
	// Scenario.Validate (ParseScenario output is already validated).
	Scenario *Scenario
	// Workers bounds the goroutines simulating drives and evaluating
	// tests; 0 (the default) uses all available cores. The generated
	// dataset is bit-identical for every worker count.
	Workers int
	// Metrics, when non-nil, receives live generation progress
	// (totals, done counters, per-worker throughput, tests/sec, ETA) —
	// typically the registry behind a -debug-addr endpoint. It never
	// affects the generated data.
	Metrics *obs.Registry
}

// GenerateDataset runs the measurement campaign.
func (w *World) GenerateDataset(opts DatasetOptions) *Dataset {
	ds, err := w.GenerateDatasetContext(context.Background(), opts)
	if err != nil {
		// Background never cancels, and cancellation is the only error.
		panic(err)
	}
	return ds
}

// GenerateDatasetContext is GenerateDataset with cooperative
// cancellation: generation workers observe ctx between work items, and
// a cancelled context returns ctx.Err() instead of a dataset — the
// checkpoint-then-exit path of the interruptible CLIs.
func (w *World) GenerateDatasetContext(ctx context.Context, opts DatasetOptions) (*Dataset, error) {
	if opts.Scale <= 0 {
		opts.Scale = 0.1
	}
	return dataset.GenerateContext(ctx, dataset.Config{
		Seed: w.seed, Scale: opts.Scale, Scenario: opts.Scenario,
		Workers: opts.Workers, Metrics: opts.Metrics,
	})
}

// FigureOptions tunes the analysis harness.
type FigureOptions struct {
	// MultipathWindowSeconds is the replay length of the §6 MPTCP
	// experiments (default 300, the paper's 5-minute tests).
	MultipathWindowSeconds int
	// MultipathWindows is how many aligned windows to replay (default 3).
	MultipathWindows int
	// Catalog classifies the dataset's networks (nil means the default
	// catalog); pass the scenario's catalog when it was a clone.
	Catalog *Catalog
	// Workers sizes the worker pools that compute the aggregate figures
	// and run the packet-level §6 replays (fig10, fig11 and
	// ablation-mptcp); 0 means one per core. The figures are
	// bit-identical for every worker count; only wall-clock changes.
	Workers int
	// Metrics, when non-nil, receives the aggregate pass's live
	// progress (shard/row counters, per-worker attribution) from Figures
	// and Figure. It never affects the figures.
	Metrics *obs.Registry
}

// ValidateWorkers normalises a worker-count flag: negative is an
// error, 0 means one worker per core (GOMAXPROCS), positive passes
// through. CLIs validate through this one gate so -workers means the
// same thing everywhere.
func ValidateWorkers(n int) (int, error) { return core.ValidateWorkers(n) }

// Figures regenerates every figure of the paper keyed by ID ("fig1",
// "fig3a", ..., "fig11", "eq1", "dataset"), with the aggregate pass's
// completeness certificate. It returns the pipeline's itemised error
// when the dataset is malformed (a test claiming a drive it does not
// have).
func (w *World) Figures(ds *Dataset, opts FigureOptions) (map[string]*Figure, *Completeness, error) {
	mp, so := opts.config()
	return core.AllFigures(ds, mp, so)
}

// Figure regenerates a single figure by ID, or returns nil for an
// unknown ID. fig10, fig11 and ablation-mptcp (which Figures leaves out)
// run only their packet-level replays; any other figure runs Figures'
// one aggregate pass. A malformed dataset panics with Figures' error.
func (w *World) Figure(ds *Dataset, id string, opts FigureOptions) *Figure {
	mp, so := opts.config()
	switch {
	case id == "fig10":
		return core.NewAnalyzer(ds).Figure10(mp)
	case id == "fig11":
		return core.NewAnalyzer(ds).Figure11(mp)
	case id == "ablation-mptcp":
		return core.NewAnalyzer(ds).MultipathAblation(mp)
	case !slices.Contains(core.StreamFigureIDs(), id):
		return nil
	}
	sa, err := core.StreamAnalyzeContext(context.Background(), &core.DatasetSource{DS: ds}, so)
	if err != nil {
		panic(err)
	}
	return sa.Figures()[id]
}

// config maps the options onto the replay and aggregate-pass settings.
func (o FigureOptions) config() (core.MultipathConfig, core.StreamOptions) {
	mp := core.MultipathConfig{WindowSeconds: o.MultipathWindowSeconds, Windows: o.MultipathWindows, Workers: o.Workers}
	so := core.StreamOptions{Workers: o.Workers, Catalog: o.Catalog, Metrics: o.Metrics, Strict: true}
	return mp, so
}

// Experiments evaluates the paper-vs-measured record over figures.
func Experiments(figs map[string]*Figure) []ExperimentRow {
	return core.Experiments(figs)
}

// RenderExperiments formats the record as a markdown table.
func RenderExperiments(rows []ExperimentRow) string {
	return core.RenderExperiments(rows)
}

// FigureIDs returns the sorted identifiers of a figure map.
func FigureIDs(figs map[string]*Figure) []string { return core.FigureIDs(figs) }

// WriteTraceCSV writes a channel trace in the satcell CSV format.
func WriteTraceCSV(w io.Writer, tr *Trace) error { return trace.WriteCSV(w, tr) }

// ReadTraceCSV reads a channel trace written by WriteTraceCSV.
func ReadTraceCSV(r io.Reader) (*Trace, error) { return trace.ReadCSV(r) }

// WriteMahimahi converts a trace to the Mahimahi delivery-opportunity
// format used by MpShell-style emulators. An opportunity later than one
// day is an error, as it is for the reader.
func WriteMahimahi(w io.Writer, tr *Trace, uplink bool) error {
	return trace.WriteMahimahi(w, tr, uplink)
}
