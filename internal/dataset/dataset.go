// Package dataset generates the synthetic equivalent of the paper's
// driving dataset (§3.3): five devices (Starlink Roam, Starlink
// Mobility, AT&T, T-Mobile, Verizon) measured side by side along drives
// across five states, yielding network tests (iPerf TCP/UDP up/down,
// parallel TCP, UDP-Ping) tagged with GPS, speed and area type. At full
// scale the campaign matches the paper's headline numbers: ~1,239
// tests, ~9,000 minutes of traces, >3,800 km driven.
package dataset

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"satcell/internal/channel"
	"satcell/internal/faults"
	"satcell/internal/geo"
	"satcell/internal/mobility"
	"satcell/internal/obs"
	"satcell/internal/stats"
)

// Kind is the type of one network test.
type Kind int

// Test kinds, mirroring the paper's §3.2 toolset.
const (
	UDPDown Kind = iota
	UDPUp
	TCPDown
	TCPDown4P
	TCPDown8P
	TCPUp
	Ping
)

// String returns the short name of the test kind.
func (k Kind) String() string {
	switch k {
	case UDPDown:
		return "udp-down"
	case UDPUp:
		return "udp-up"
	case TCPDown:
		return "tcp-down"
	case TCPDown4P:
		return "tcp-down-4p"
	case TCPDown8P:
		return "tcp-down-8p"
	case TCPUp:
		return "tcp-up"
	case Ping:
		return "udp-ping"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Parallel returns the number of parallel TCP streams of the kind.
func (k Kind) Parallel() int {
	switch k {
	case TCPDown4P:
		return 4
	case TCPDown8P:
		return 8
	default:
		return 1
	}
}

// Outcome classifies how one campaign test ended. The paper's field
// campaign (§3.3) loses tests to tunnels, obstructions and 15 s
// reallocation epochs; recording the outcome keeps those windows in
// the dataset as explicit partial/failed tests instead of silent rows
// of zeros that pollute the distributions.
type Outcome int

// Test outcomes.
const (
	// OutcomeComplete: the window had usable connectivity throughout
	// (outage share below the truncation threshold).
	OutcomeComplete Outcome = iota
	// OutcomeTruncated: a significant share of the window was in
	// outage; the recorded figures cover the surviving seconds.
	OutcomeTruncated
	// OutcomeFailed: the window produced no usable measurement at all
	// (no records, or every second in outage).
	OutcomeFailed
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeComplete:
		return "complete"
	case OutcomeTruncated:
		return "truncated"
	case OutcomeFailed:
		return "failed"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// truncatedOutageShare is the outage fraction above which a test is
// classified truncated: a quarter of the window spent dark means the
// transport spent much of the test reconnecting, not measuring.
const truncatedOutageShare = 0.25

// classifyOutcome derives a test's outcome from its channel records.
// It is a pure function of the (deterministic) records, so the same
// campaign seed always yields the same classification.
func classifyOutcome(recs []channel.Record) Outcome {
	if len(recs) == 0 {
		return OutcomeFailed
	}
	outage := 0
	for i := range recs {
		if recs[i].Sample.Outage {
			outage++
		}
	}
	switch {
	case outage == len(recs):
		return OutcomeFailed
	case float64(outage) >= truncatedOutageShare*float64(len(recs)):
		return OutcomeTruncated
	default:
		return OutcomeComplete
	}
}

// testRotation is the repeating order of test windows during a drive.
var testRotation = []Kind{
	UDPDown, TCPDown, Ping, UDPUp, UDPDown, TCPDown4P,
	TCPDown, UDPDown, TCPDown8P, Ping, TCPUp, UDPDown,
}

// Test is one per-device network test (the paper's unit: 1,239 of them).
type Test struct {
	ID      int
	Network channel.NetworkID
	Kind    Kind
	// Drive indexes the Dataset.Drives entry the test window was carved
	// from; the streaming analyzer shards the campaign on it.
	Drive    int
	Route    string
	State    string
	Start    time.Duration // offset into the drive
	Duration time.Duration

	// Environment summary over the test window.
	Area         geo.AreaType // majority area type
	MeanSpeedKmh float64

	// Outcome classifies the test: complete, truncated (significant
	// outage share) or failed (no usable measurement).
	Outcome Outcome

	// Channel observations (per second).
	Records []channel.Record

	// Results.
	ThroughputMbps float64   // goodput of the test's transport
	Series         []float64 // per-second goodput
	RTTsMs         []float64 // ping tests
	LossRate       float64
	RetransRate    float64 // TCP tests
}

// Drive is one route traversal with the channel observations of all
// five devices for its entire duration.
type Drive struct {
	Route    string
	State    string
	Fixes    []mobility.Fix
	Observed map[channel.NetworkID][]channel.Record
}

// Trace extracts the continuous channel trace of one network over the
// whole drive.
func (d *Drive) Trace(n channel.NetworkID) *channel.Trace {
	recs := d.Observed[n]
	tr := &channel.Trace{Network: n}
	for _, r := range recs {
		tr.Samples = append(tr.Samples, r.Sample)
	}
	return tr
}

// Dataset is the complete campaign output.
type Dataset struct {
	Drives []Drive
	Tests  []Test

	// Networks is the campaign's measured network set in iteration
	// order; consumers (analyses, export, reports) iterate this instead
	// of assuming the built-in five.
	Networks []channel.NetworkID
	// Scenario names the scenario the campaign ran (may be empty).
	Scenario string

	// Quarantined itemises the drives generation gave up on under
	// Config.Degrade (sorted by drive index). Their Drives slots remain
	// — indices name shards — but hold no observations and no tests.
	Quarantined []DriveFailure

	TotalKm      float64
	TotalTestMin float64
	Seed         int64
}

// Config controls campaign generation.
type Config struct {
	// Seed makes the whole campaign reproducible.
	Seed int64
	// Scale scales the campaign length: 1.0 reproduces the paper's
	// ~3,800 km / ~1,239 tests; smaller values generate proportionally
	// less. Default 0.05.
	Scale float64
	// Scenario declares the campaign: network subset (and the catalog
	// resolving it), route mix, test matrix and optionally the seed.
	// Nil means the default scenario — the paper's five networks over
	// the default routes with the §3.2 rotation — which reproduces the
	// seed dataset bit-identically. Generate panics on an invalid
	// scenario; callers taking user input should Validate first.
	Scenario *Scenario
	// Workers bounds the goroutines simulating drives and evaluating
	// tests, and with them the drives in flight (workers+1, see
	// StreamContext); 0 (the default) uses runtime.GOMAXPROCS(0). The
	// campaign is bit-identical for every worker count.
	Workers int
	// Metrics, when non-nil, exposes generation progress: campaign
	// totals (dataset.drives_total / dataset.tests_total), live done
	// counters, per-worker throughput (dataset.worker.NN.tests), and
	// sampled dataset.tests_per_sec / dataset.eta_sec gauges — so a
	// long full-scale run can be watched from the debug endpoint.
	// Instrumentation never feeds back into generation: the campaign
	// stays bit-identical with or without it.
	Metrics *obs.Registry
	// Spans, when non-nil, is the flight-recorder parent under which
	// generation opens one child span per (drive, network) sampling unit
	// (worker-tagged, outcome ok/retried/quarantined/cancelled). Unit
	// granularity keeps the per-sample loop span-free, and — like
	// Metrics — spans observe generation without feeding back into it.
	Spans *obs.Span

	// Degrade turns on degrade-don't-abort generation: every (drive,
	// network) sampling unit runs behind a recover fence, transient
	// failures are retried with the shared backoff policy, and a unit
	// that panics or exhausts its retries quarantines its whole drive
	// (recorded in Dataset.Quarantined) instead of aborting the run.
	// Off by default: the fenceless path is the one the golden-digest
	// tests pin.
	Degrade bool
	// BeforeUnit, if set, runs before each (drive, network) sampling
	// unit — the generation sibling of ExportOptions.BeforeFile. The
	// chaos tests use it to inject unit failures and crash points; an
	// error or panic from it is handled per the Degrade taxonomy.
	BeforeUnit func(drive int, network channel.NetworkID) error
}

// PaperTotalKm is the paper's total drive distance (§3.3).
const PaperTotalKm = 3800

// Campaign-pacing constants chosen so that a full-scale run reproduces
// the §3.3 headline numbers.
const (
	meanTestSeconds = 440 // ~7.3 min per test window
	meanGapSeconds  = 330 // idle time between windows
)

// Generate runs the campaign and produces the dataset in two passes: a
// cheap serial *planning* pass that fixes the random plan (route order,
// mobility fixes, window offsets/durations/kinds — everything drawn
// from the shared campaign RNG), and an expensive *execution* pass that
// fans channel sampling and per-test transport evaluation out across a
// worker pool. Every unit of execution work owns a derived RNG, so the
// output is bit-identical for every Config.Workers value — including
// the original single-threaded generator.
func Generate(cfg Config) *Dataset {
	ds, err := GenerateContext(context.Background(), cfg)
	if err != nil {
		// Background never cancels; GenerateContext has no other errors.
		panic(err)
	}
	return ds
}

// GenerateContext is Generate with cooperative cancellation: worker
// units observe ctx between items, and a cancelled context returns
// ctx.Err() instead of a dataset. Cancellation is the only error —
// invalid scenarios still panic, and Degrade failures degrade. It is
// StreamContext with an emit that keeps every drive and test.
func GenerateContext(ctx context.Context, cfg Config) (*Dataset, error) {
	var drives []Drive
	var tests []Test
	ds, err := StreamContext(ctx, cfg, func(ds *Dataset, di int, ts []Test) error {
		drives = append(drives, ds.Drives[di])
		tests = append(tests, ts...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	ds.Drives, ds.Tests = drives, tests
	return ds, nil
}

// StreamContext runs the campaign like GenerateContext but hands each
// drive on as soon as it is finished instead of keeping it. emit runs
// on the calling goroutine, once per drive, in drive-index order, after
// every (drive, network) sampling unit of drive di and the tests they
// carve have finished. During the call, ds is the campaign so far and
// ds.Drives[di] the finished drive with its observations; tests are the
// drive's tests in ID order, their Records aliasing the observations. A
// quarantined drive (ds.DriveQuarantined(di)) is emitted with nil
// Observed and no tests. Once emit returns, the generator drops the
// drive's fixes, observations and per-second test data, so emit must
// copy whatever it keeps.
//
// At most workers+1 drives are in flight: a worker starts no unit of
// drive d while d > next+workers, where next is the drive being
// emitted. Memory therefore holds O(workers+1) drives plus the plan's
// fixes whatever the campaign's length.
//
// The returned Dataset holds the campaign's totals and quarantine
// ledger, each drive's Route and State (no fixes, no observations) and
// each test's scalar fields (no Records, Series or RTTsMs): what the
// tests.csv and MANIFEST of an export need. An error from emit cancels
// the pool and is returned; cancellation returns ctx.Err().
func StreamContext(ctx context.Context, cfg Config, emit func(ds *Dataset, di int, tests []Test) error) (*Dataset, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 0.05
	}
	sc := cfg.Scenario
	if sc == nil {
		sc = DefaultScenario()
	}
	if err := sc.Validate(); err != nil {
		panic(err)
	}
	cfg.Seed = sc.EffectiveSeed(cfg.Seed)
	routes := sc.routes()
	nets := sc.networks()
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	ds := &Dataset{Seed: cfg.Seed, Networks: nets, Scenario: sc.Name}
	drives, tests := planCampaign(cfg, routes, nets, sc.rotation(), ds)

	reg := cfg.Metrics
	reg.Gauge("dataset.drives_total").Set(float64(len(drives)))
	reg.Gauge("dataset.tests_total").Set(float64(len(tests)))
	testsDone := reg.Counter("dataset.tests_done")
	genStart := time.Now()
	// Rate and ETA are sampled at scrape time from the done counter.
	// After Generate returns the rate decays toward zero and the ETA
	// pins at zero — the natural reading for a finished campaign.
	reg.RegisterFunc("dataset.tests_per_sec", func() float64 {
		el := time.Since(genStart).Seconds()
		if el <= 0 {
			return 0
		}
		return float64(testsDone.Value()) / el
	})
	reg.RegisterFunc("dataset.eta_sec", func() float64 {
		done := testsDone.Value()
		el := time.Since(genStart).Seconds()
		if done <= 0 || el <= 0 {
			return 0
		}
		remaining := float64(len(tests)) - float64(done)
		if remaining <= 0 {
			return 0
		}
		return remaining / (float64(done) / el)
	})

	if err := execute(ctx, ds, drives, tests, modelBuilders(sc, nets, cfg.Seed), workers, &cfg, emit); err != nil {
		return nil, err
	}
	return ds, nil
}

// drivePlan is the planning-pass record of one route traversal: the
// mobility fixes consume the shared campaign RNG and determine the
// drive duration the windows are carved from.
type drivePlan struct {
	route *mobility.Route
	fixes []mobility.Fix
}

// testPlan schedules one test window of one network for execution.
type testPlan struct {
	id    int
	drive int
	net   channel.NetworkID
	kind  Kind
	start time.Duration
	dur   time.Duration
}

// planCampaign runs the serial planning pass. It consumes the shared
// campaign RNG in exactly the order the original serial generator did
// (per drive: mobility draws, then window offset/duration/gap draws),
// so the plan — and with it the whole dataset — is unchanged.
func planCampaign(cfg Config, routes []*mobility.Route, nets []channel.NetworkID, rotation []Kind, ds *Dataset) ([]drivePlan, []testPlan) {
	gaz := geo.DefaultGazetteer()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var drives []drivePlan
	var tests []testPlan
	targetKm := PaperTotalKm * cfg.Scale
	testID := 0
	for ri := 0; ds.TotalKm < targetKm; ri++ {
		route := routes[ri%len(routes)]
		fixes := mobility.Drive(route, gaz, rng)
		ds.TotalKm += lastDist(fixes)
		duration := time.Duration(0)
		if len(fixes) > 0 {
			duration = fixes[len(fixes)-1].At
		}

		// Carve the drive into test windows.
		offset := time.Duration(rng.Intn(60)) * time.Second
		rot := 0
		for offset < duration {
			dur := time.Duration(float64(meanTestSeconds)*(0.6+0.8*rng.Float64())) * time.Second
			if offset+dur > duration {
				break
			}
			kind := rotation[rot%len(rotation)]
			rot++
			for _, n := range nets {
				tests = append(tests, testPlan{
					id: testID, drive: len(drives), net: n,
					kind: kind, start: offset, dur: dur,
				})
				testID++
				ds.TotalTestMin += dur.Minutes()
			}
			offset += dur + time.Duration(float64(meanGapSeconds)*(0.6+0.8*rng.Float64()))*time.Second
		}
		drives = append(drives, drivePlan{route: route, fixes: fixes})
	}
	return drives, tests
}

// modelBuilders resolves each scenario network to its channel-model
// builder through the catalog. Each spec's BuildFunc derives its model
// seed from the campaign seed plus the spec's offset — the built-in
// offsets reproduce the original generator's per-network seeds, so the
// default campaign is unchanged. Execution builds a fresh model per
// (drive, network) unit of work; because a fresh model starts its
// stream from the seed exactly like Reset() did between drives, the
// per-drive sample streams are unchanged too.
func modelBuilders(sc *Scenario, nets []channel.NetworkID, seed int64) map[channel.NetworkID]channel.Builder {
	cat := sc.catalog()
	builders := make(map[channel.NetworkID]channel.Builder, len(nets))
	for _, n := range nets {
		b, err := cat.Builder(n, seed)
		if err != nil {
			// Validate ran before planning; reaching this means the
			// catalog mutated mid-generation.
			panic(err)
		}
		builders[n] = b
	}
	return builders
}

// Unit retries under Config.Degrade: a unit is retried at most
// unitRetries times after a transient failure, waiting
// faults.BackoffDelay(unitRetryBackoff, ...) before each retry.
const (
	unitRetries      = 2
	unitRetryBackoff = 5 * time.Millisecond
)

// execute runs the plan and emits the drives. Each (drive, network)
// unit samples one network's channel along one drive and then evaluates
// that network's tests of the drive (a test reads only its own
// network's records), so a drive is finished when its last unit is; the
// calling goroutine emits the finished drives in index order. Under
// cfg.Degrade each unit's sampling runs behind a recover fence with
// transient retries; a unit that panics or exhausts its retries
// quarantines its whole drive, and the pool moves on. The fenceless
// default path is byte-for-byte the original one.
func execute(parent context.Context, ds *Dataset, plans []drivePlan, tests []testPlan, builders map[channel.NetworkID]channel.Builder, workers int, cfg *Config, emit func(*Dataset, int, []Test) error) error {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	nets := ds.Networks
	reg := cfg.Metrics
	fl := newFlight(len(plans), len(nets), workers)
	defer context.AfterFunc(ctx, fl.wake)()

	// first[d] is the index of drive d's first test: planning appends
	// tests drive by drive.
	first := make([]int, len(plans)+1)
	for _, t := range tests {
		first[t.drive+1]++
	}
	for d := range plans {
		first[d+1] += first[d]
	}
	sampled := make([][][]channel.Record, len(plans))
	for i := range sampled {
		sampled[i] = make([][]channel.Record, len(nets))
	}
	out := make([]Test, len(tests))

	unitsDone := reg.Counter("dataset.drive_units_done")
	// samplesDone ticks once per channel sample — fine-grained enough
	// that a stall watchdog can tell "one long unit, still sampling"
	// from "wedged" at any campaign scale.
	samplesDone := reg.Counter("dataset.samples_done")
	retries := reg.Counter("dataset.unit_retries")
	drivesQuarantined := reg.Counter("dataset.drives_quarantined")
	testsDone := reg.Counter("dataset.tests_done")
	// Per-worker counters show how the pool's work balanced; they label
	// worker slots, never steer them.
	perWorker := make([]*obs.Counter, workers)
	for w := range perWorker {
		perWorker[w] = reg.Counter(fmt.Sprintf("dataset.worker.%02d.tests", w))
	}

	// sample runs unit (di, ni) and reports whether its records landed
	// in sampled[di][ni]: false when the drive is quarantined or the run
	// is cancelled.
	sample := func(w, di, ni int) bool {
		n := nets[ni]
		// One flight-recorder span per sampling unit, worker-tagged so the
		// report can chart generation-pool utilization. The slot id feeds
		// only the span label, never the sampled bytes.
		span := cfg.Spans.Child(obs.SpanUnit,
			obs.WorkerPrefix(w)+fmt.Sprintf("drive%03d:%s", di, n))
		runUnit := func() error {
			if cfg.BeforeUnit != nil {
				if err := cfg.BeforeUnit(di, n); err != nil {
					return err
				}
			}
			m := builders[n]()
			fixes := plans[di].fixes
			recs := make([]channel.Record, len(fixes))
			for j, f := range fixes {
				env := channel.Env{At: f.At, Pos: f.Pos, SpeedKmh: f.SpeedKmh, Area: f.Area}
				recs[j] = channel.Record{Env: env, Sample: m.Sample(env)}
				samplesDone.Inc()
			}
			sampled[di][ni] = recs
			return nil
		}
		if !cfg.Degrade {
			if err := runUnit(); err != nil {
				// BeforeUnit is a degrade-mode seam; without the taxonomy
				// there is nowhere to degrade to, so fail loudly.
				panic(err)
			}
			span.End(obs.SpanOK, "")
			unitsDone.Inc()
			return true
		}
		if fl.failure(di) != nil {
			span.End(obs.SpanQuarantined, "drive already quarantined")
			unitsDone.Inc()
			return false
		}
		k := di*len(nets) + ni
		for attempt := 1; ; attempt++ {
			err := runFenced(runUnit)
			if err == nil {
				if attempt > 1 {
					span.End(obs.SpanRetried, fmt.Sprintf("ok after %d attempts", attempt))
				} else {
					span.End(obs.SpanOK, "")
				}
				unitsDone.Inc()
				return true
			}
			if ctx.Err() != nil {
				// Cancellation mid-unit is the run stopping, not the drive
				// failing: leave no quarantine record behind.
				span.End(obs.SpanCancelled, ctx.Err().Error())
				return false
			}
			var pe *unitPanic
			class := FailTransient
			if errors.As(err, &pe) {
				class = FailPanic
			} else if attempt <= unitRetries {
				retries.Inc()
				select {
				case <-ctx.Done():
					span.End(obs.SpanCancelled, ctx.Err().Error())
					return false
				case <-time.After(faults.BackoffDelay(unitRetryBackoff, k, attempt)):
				}
				continue
			}
			if fl.quarantine(&DriveFailure{
				Drive: di, Route: plans[di].route.Name, Network: n,
				Attempts: attempt, Class: class, Err: err.Error(),
			}) {
				drivesQuarantined.Inc()
			}
			span.End(obs.SpanQuarantined, err.Error())
			unitsDone.Inc()
			return false
		}
	}

	// evaluate carves and evaluates network ni's tests of drive di. Each
	// test draws from its own derived RNG (Reevaluate), so the
	// evaluation order cannot change results.
	evaluate := func(w, di, ni int) {
		n, recs, route := nets[ni], sampled[di][ni], plans[di].route
		for i := first[di]; i < first[di+1]; i++ {
			p := &tests[i]
			if p.net != n {
				continue
			}
			if ctx.Err() != nil {
				return
			}
			out[i] = Test{
				ID: p.id, Network: n, Kind: p.kind, Drive: di,
				Route: route.Name, State: route.State,
				Start: p.start, Duration: p.dur,
				Records: Window(recs, p.start, p.start+p.dur),
			}
			out[i].Reevaluate(cfg.Seed)
			testsDone.Inc()
			perWorker[w].Inc()
		}
	}

	wait := startPool(workers, len(plans)*len(nets), func(w, k int) {
		di, ni := k/len(nets), k%len(nets)
		if !fl.admit(ctx, di) {
			return
		}
		if sample(w, di, ni) && fl.failure(di) == nil {
			evaluate(w, di, ni)
		}
		fl.unitDone(di)
	}, cancel)

	var err error
	for di := range plans {
		if !fl.await(ctx, di) {
			break
		}
		p := &plans[di]
		d := Drive{Route: p.route.Name, State: p.route.State, Fixes: p.fixes}
		var ts []Test
		if f := fl.failure(di); f != nil {
			// Quarantined drives contribute no tests; surviving test IDs
			// were assigned at planning and do not shift.
			ds.Quarantined = append(ds.Quarantined, *f)
		} else {
			d.Observed = make(map[channel.NetworkID][]channel.Record, len(nets))
			for ni, n := range nets {
				d.Observed[n] = sampled[di][ni]
			}
			ts = out[first[di]:first[di+1]]
		}
		ds.Drives = append(ds.Drives, d)
		err = emit(ds, di, ts)
		// Keep what tests.csv and the manifest need; release the rest.
		ds.Drives[di] = Drive{Route: d.Route, State: d.State}
		for _, t := range ts {
			t.Records, t.Series, t.RTTsMs = nil, nil, nil
			ds.Tests = append(ds.Tests, t)
		}
		clear(ts)
		sampled[di], p.fixes = nil, nil
		if err != nil {
			break
		}
		fl.advance()
	}
	cancel()
	if fault := wait(); fault != nil {
		panic(fault)
	}
	if err != nil {
		return err
	}
	return parent.Err()
}

// flight is the shared state of the drives in flight: the units each
// drive still runs, the drives quarantined so far, and the drive being
// emitted, which bounds the drives a worker may start.
type flight struct {
	mu          sync.Mutex
	cond        *sync.Cond
	workers     int
	next        int
	left        []int
	quarantined map[int]*DriveFailure
}

func newFlight(drives, nets, workers int) *flight {
	f := &flight{workers: workers, left: make([]int, drives), quarantined: make(map[int]*DriveFailure)}
	f.cond = sync.NewCond(&f.mu)
	for i := range f.left {
		f.left[i] = nets
	}
	return f
}

// admit blocks while drive di is more than workers drives ahead of the
// drive being emitted, and reports whether the unit may run (false once
// ctx is done).
func (f *flight) admit(ctx context.Context, di int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for di > f.next+f.workers && ctx.Err() == nil {
		f.cond.Wait()
	}
	return ctx.Err() == nil
}

// unitDone marks one unit of drive di finished.
func (f *flight) unitDone(di int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.left[di]--; f.left[di] == 0 {
		f.cond.Broadcast()
	}
}

// await blocks until every unit of drive di has finished, and reports
// whether the drive may be emitted (false once ctx is done).
func (f *flight) await(ctx context.Context, di int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.left[di] > 0 && ctx.Err() == nil {
		f.cond.Wait()
	}
	return ctx.Err() == nil
}

// advance moves the window on once the drive being emitted is done.
func (f *flight) advance() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.next++
	f.cond.Broadcast()
}

// wake releases every waiter so it can observe a cancelled context.
func (f *flight) wake() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cond.Broadcast()
}

// quarantine records drive d's failure and reports whether it was the
// first: a drive is quarantined once, whichever of its units trips
// first in pool order.
func (f *flight) quarantine(d *DriveFailure) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.quarantined[d.Drive] != nil {
		return false
	}
	f.quarantined[d.Drive] = d
	return true
}

// failure returns drive di's quarantine record, nil while it has none.
func (f *flight) failure(di int) *DriveFailure {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.quarantined[di]
}

// runFenced runs one generation unit behind a recover fence, converting
// a panic into a *unitPanic error for the taxonomy.
func runFenced(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &unitPanic{val: r}
		}
	}()
	return fn()
}

func lastDist(fixes []mobility.Fix) float64 {
	if len(fixes) == 0 {
		return 0
	}
	return fixes[len(fixes)-1].DistKm
}

// Reevaluate rederives the test's measured results (environment
// summary, outcome, series, RTTs, throughput, loss and retransmission
// rates) from its channel Records, reproducing the campaign generator's
// per-test derived RNG stream for the given campaign seed. The
// streaming store path uses it to rebuild full tests from persisted
// trace shards: given bit-identical Records it reproduces generation
// bit-identically, and it is deterministic in the records regardless of
// scan order or worker count.
func (t *Test) Reevaluate(seed int64) {
	t.evaluate(rand.New(rand.NewSource(seed ^ int64(t.ID+1)*0x9E3779B9)))
}

// evaluate computes a test's derived fields from t.Records, consuming
// rng exactly like the original generator (the transport simulations
// draw from it), so generation and replay share one code path.
func (t *Test) evaluate(rng *rand.Rand) {
	recs := t.Records
	kind, start := t.Kind, t.Start
	t.Area = majorityArea(recs)
	t.MeanSpeedKmh = meanSpeed(recs)
	t.Outcome = classifyOutcome(recs)
	t.Series, t.RTTsMs = nil, nil
	t.ThroughputMbps, t.LossRate, t.RetransRate = 0, 0, 0

	tr := &channel.Trace{Network: t.Network, Samples: make([]channel.Sample, len(recs))}
	for i := range recs {
		s := recs[i].Sample
		s.At -= start
		tr.Samples[i] = s
	}

	switch kind {
	case UDPDown:
		t.Series = tr.DownSeries()
		t.ThroughputMbps = stats.Mean(t.Series)
		t.LossRate = meanLoss(recs, false)
	case UDPUp:
		t.Series = tr.UpSeries()
		t.ThroughputMbps = stats.Mean(t.Series)
		t.LossRate = meanLoss(recs, true)
	case TCPDown, TCPDown4P, TCPDown8P:
		res := FluidTCP{Flows: kind.Parallel()}.Run(tr, rng)
		t.Series = res.GoodputMbps
		t.ThroughputMbps = res.MeanGoodputMbps
		t.RetransRate = res.RetransRate
		t.LossRate = meanLoss(recs, false)
	case TCPUp:
		up := flipTrace(tr)
		res := FluidTCP{Flows: 1}.Run(up, rng)
		t.Series = res.GoodputMbps
		t.ThroughputMbps = res.MeanGoodputMbps
		t.RetransRate = res.RetransRate
		t.LossRate = meanLoss(recs, true)
	case Ping:
		for i := range recs {
			r := &recs[i]
			if r.Sample.Outage || r.Sample.RTT == 0 {
				t.LossRate++
				continue
			}
			// Probe loss follows the channel loss of both directions.
			if rng.Float64() < r.Sample.LossUp+r.Sample.LossDown {
				t.LossRate++
				continue
			}
			t.RTTsMs = append(t.RTTsMs, r.Sample.RTT.Seconds()*1000)
		}
		if len(recs) > 0 {
			t.LossRate /= float64(len(recs))
		}
		// A ping window with every probe lost measured nothing.
		if len(t.RTTsMs) == 0 {
			t.Outcome = OutcomeFailed
		}
	}
}

// flipTrace swaps up and down so the fluid model (which reads DownMbps/
// LossDown) evaluates the uplink direction.
func flipTrace(tr *channel.Trace) *channel.Trace {
	out := &channel.Trace{Network: tr.Network}
	for _, s := range tr.Samples {
		s.DownMbps, s.UpMbps = s.UpMbps, s.DownMbps
		s.LossDown, s.LossUp = s.LossUp, s.LossDown
		out.Samples = append(out.Samples, s)
	}
	return out
}

// Window returns the records of recs with from <= Env.At < to. recs
// is a drive's observations in ascending Env.At order, so the window is
// a contiguous range: it aliases recs, capacity-capped so an append
// cannot write into the records after it, instead of copying most of
// the drive once per overlapping test.
func Window(recs []channel.Record, from, to time.Duration) []channel.Record {
	lo := sort.Search(len(recs), func(i int) bool { return recs[i].Env.At >= from })
	hi := lo + sort.Search(len(recs)-lo, func(i int) bool { return recs[lo+i].Env.At >= to })
	return recs[lo:hi:hi]
}

func majorityArea(recs []channel.Record) geo.AreaType {
	// geo.AreaTypes are 0, 1 and 2; a record of any other area counts
	// for none of them, and an area type past the array never wins.
	var counts [geo.Rural + 1]int
	for i := range recs {
		if a := recs[i].Env.Area; a >= 0 && int(a) < len(counts) {
			counts[a]++
		}
	}
	best := geo.Rural
	bestN := -1
	for _, a := range geo.AreaTypes {
		if int(a) < len(counts) && counts[a] > bestN {
			best, bestN = a, counts[a]
		}
	}
	return best
}

func meanSpeed(recs []channel.Record) float64 {
	if len(recs) == 0 {
		return 0
	}
	sum := 0.0
	for i := range recs {
		sum += recs[i].Env.SpeedKmh
	}
	return sum / float64(len(recs))
}

func meanLoss(recs []channel.Record, uplink bool) float64 {
	if len(recs) == 0 {
		return 0
	}
	sum := 0.0
	for i := range recs {
		if uplink {
			sum += recs[i].Sample.LossUp
		} else {
			sum += recs[i].Sample.LossDown
		}
	}
	return sum / float64(len(recs))
}

// --- Query helpers used by the analyses ---

// MeasuredNetworks returns the campaign's measured networks in
// iteration order, falling back to the built-in five for datasets
// predating scenarios (an empty Networks).
func (ds *Dataset) MeasuredNetworks() []channel.NetworkID {
	if len(ds.Networks) > 0 {
		return ds.Networks
	}
	return channel.Networks
}

// Filter returns the tests matching every predicate.
func (ds *Dataset) Filter(preds ...func(*Test) bool) []*Test {
	var out []*Test
outer:
	for i := range ds.Tests {
		t := &ds.Tests[i]
		for _, p := range preds {
			if !p(t) {
				continue outer
			}
		}
		out = append(out, t)
	}
	return out
}

// ByNetwork filters on the measured network.
func ByNetwork(n channel.NetworkID) func(*Test) bool {
	return func(t *Test) bool { return t.Network == n }
}

// ByKind filters on the test kind.
func ByKind(kinds ...Kind) func(*Test) bool {
	return func(t *Test) bool {
		for _, k := range kinds {
			if t.Kind == k {
				return true
			}
		}
		return false
	}
}
