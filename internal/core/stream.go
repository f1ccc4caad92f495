package core

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"satcell/internal/channel"
	"satcell/internal/dataset"
	"satcell/internal/faults"
	"satcell/internal/geo"
	"satcell/internal/obs"
	"satcell/internal/stats"
)

// This file is the aggregate analysis pipeline, the one way figures 1,
// 3a-9, Eq. 1 and the dataset summary are computed: a supervisor feeds
// planned shard refs to a worker pool, each worker loads and folds its
// shard (one drive per shard) into mergeable partial aggregates, an
// exact merge combines the partials, and the figure builders
// (figbuild.go) render from the merged state. Because every
// floating-point reduction lives in a canonical stats.Sketch and every
// other aggregate is an integer counter or a set, the merged state —
// and therefore every rendered byte — is identical for any worker
// count and any shard-to-worker interleaving. Peak memory is
// O(largest shard + sketches), never O(dataset).
//
// The supervisor degrades instead of aborting: a shard whose load hits
// a transient I/O error is retried with capped backoff, a shard that
// stays bad (or panics the accumulator) is quarantined, and every run
// carries a Completeness certificate itemising exactly what was lost.
// Strict mode keeps the original abort-on-first-error contract.

// Shard is one unit of streaming work: a single drive's records (per
// network, in drive order) and the tests carved from it.
type Shard struct {
	Drive        int
	Route, State string
	// Records holds each network's per-second observations; all
	// networks of a drive have equal length (one record per GPS fix).
	Records map[channel.NetworkID][]channel.Record
	// Tests lists the drive's evaluated test windows, failed ones
	// included (the accumulator counts and skips them).
	Tests []*dataset.Test
}

// SourceInfo describes the campaign a ShardSource scans: facts that are
// not recoverable from the shards themselves.
type SourceInfo struct {
	// Networks lists the measured networks in campaign order.
	Networks []channel.NetworkID
	// Seed is the campaign's generation seed (drives the fluid-TCP
	// variant RNGs).
	Seed int64
	// TotalKm and TotalTestMin are the §3.3 campaign totals (distance
	// covers gaps between test windows, so summing shards undercounts).
	TotalKm, TotalTestMin float64
}

// ShardRef identifies one planned unit of streaming work before it is
// loaded. Plan produces the full list up front so the supervisor can
// retry, quarantine and certify shards individually.
type ShardRef struct {
	// Index is the ref's position in Plan order; it doubles as the
	// shard's deterministic identity for retry jitter.
	Index int
	// Drive is the drive the shard covers.
	Drive int
	// Label names the shard in certificates and error messages.
	Label string
}

// ShardSource is the streaming pipeline's data contract, split so the
// cheap structural part (Plan: manifests, control files — fatal in
// every mode) is separate from the heavy per-shard I/O (Load), which
// the supervisor runs in workers with retry and quarantine. Plan is
// called once, before any Load; Load must be safe for concurrent calls
// with distinct refs and for repeated calls with the same ref
// (retries).
type ShardSource interface {
	Info() (SourceInfo, error)
	Plan() ([]ShardRef, error)
	Load(ref ShardRef) (*Shard, error)
}

// DatasetSource adapts an in-memory dataset to the streaming pipeline,
// sharding the campaign on the Test.Drive index. It shares the
// dataset's memory (no copies); StoreSource is the bounded-memory scan
// of an exported corpus.
type DatasetSource struct {
	DS *dataset.Dataset

	byDrive [][]*dataset.Test
}

// Info implements ShardSource.
func (s *DatasetSource) Info() (SourceInfo, error) {
	return SourceInfo{
		Networks: s.DS.MeasuredNetworks(), Seed: s.DS.Seed,
		TotalKm: s.DS.TotalKm, TotalTestMin: s.DS.TotalTestMin,
	}, nil
}

// Plan implements ShardSource: one shard per drive, in drive order.
func (s *DatasetSource) Plan() ([]ShardRef, error) {
	ds := s.DS
	byDrive := make([][]*dataset.Test, len(ds.Drives))
	for i := range ds.Tests {
		t := &ds.Tests[i]
		if t.Drive < 0 || t.Drive >= len(ds.Drives) {
			return nil, fmt.Errorf("core: test %d claims drive %d of %d", t.ID, t.Drive, len(ds.Drives))
		}
		byDrive[t.Drive] = append(byDrive[t.Drive], t)
	}
	s.byDrive = byDrive
	refs := make([]ShardRef, len(ds.Drives))
	for i := range ds.Drives {
		refs[i] = ShardRef{Index: i, Drive: i,
			Label: fmt.Sprintf("drive%03d_%s", i, ds.Drives[i].Route)}
	}
	return refs, nil
}

// Load implements ShardSource. In-memory loads cannot fail.
func (s *DatasetSource) Load(ref ShardRef) (*Shard, error) {
	d := &s.DS.Drives[ref.Drive]
	return &Shard{
		Drive: ref.Drive, Route: d.Route, State: d.State,
		Records: d.Observed, Tests: s.byDrive[ref.Drive],
	}, nil
}

// bucketKey identifies one (network, kind) test bucket.
type bucketKey struct {
	net  channel.NetworkID
	kind dataset.Kind
}

// partial is one worker's mergeable aggregate state. Every field is
// either a canonical sketch (order-invariant by construction), an
// integer counter (exactly associative), a set, or a max-candidate
// (timeline), so merging partials in any grouping produces identical
// state.
type partial struct {
	cols []fig9Column

	drives   int
	states   map[string]bool
	tests    int
	outcomes map[dataset.Outcome]int
	skipped  int

	perSec  map[bucketKey]*stats.Sketch
	rtt     map[channel.NetworkID]*stats.Sketch
	retrans map[bucketKey]*stats.Sketch
	fluid   map[fluidKey]*stats.Sketch
	speed   map[channel.NetworkID]map[int]*stats.Sketch
	area    map[netArea]*stats.Sketch

	areaCounts map[geo.AreaType]int
	perfCounts [][4]int
	perfTotal  int

	timeline *timelineData
}

func newPartial(cols []fig9Column) *partial {
	return &partial{
		cols:       cols,
		states:     make(map[string]bool),
		outcomes:   make(map[dataset.Outcome]int),
		perSec:     make(map[bucketKey]*stats.Sketch),
		rtt:        make(map[channel.NetworkID]*stats.Sketch),
		retrans:    make(map[bucketKey]*stats.Sketch),
		fluid:      make(map[fluidKey]*stats.Sketch),
		speed:      make(map[channel.NetworkID]map[int]*stats.Sketch),
		area:       make(map[netArea]*stats.Sketch),
		areaCounts: make(map[geo.AreaType]int),
		perfCounts: make([][4]int, len(cols)),
	}
}

func sketchAt[K comparable](m map[K]*stats.Sketch, k K) *stats.Sketch {
	s := m[k]
	if s == nil {
		s = stats.NewSketch()
		m[k] = s
	}
	return s
}

// kindIn reports membership of k in kinds.
func kindIn(kinds []dataset.Kind, k dataset.Kind) bool {
	for _, x := range kinds {
		if x == k {
			return true
		}
	}
	return false
}

// accumulate folds one shard into the partial. rows counts the records
// and test windows consumed (for throughput metrics). incumbent is the
// best timeline candidate already held outside p (the worker partial's,
// when p is a per-shard local): a shard that cannot beat it skips the
// expensive X/Y series copy. betterThan is a strict total order, so the
// skip can never drop the campaign-wide winner.
func (p *partial) accumulate(sh *Shard, info SourceInfo, nets []channel.NetworkID, incumbent *timelineData) (rows int) {
	p.drives++
	p.states[sh.State] = true

	// Per-second campaign scans: area shares and the Figure 9
	// performance levels use the fix sequence (the first network's
	// record count — all networks observe every fix).
	var fixes []channel.Record
	if len(nets) > 0 {
		fixes = sh.Records[nets[0]]
	}
	// Each Figure 9 column's record slices, looked up once per shard.
	colRecs := make([][][]channel.Record, len(p.cols))
	for ci := range p.cols {
		colRecs[ci] = make([][]channel.Record, len(p.cols[ci].nets))
		for k, net := range p.cols[ci].nets {
			colRecs[ci][k] = sh.Records[net]
		}
	}
	for i := range fixes {
		p.areaCounts[fixes[i].Env.Area]++
		for ci, col := range colRecs {
			best := 0.0
			for _, recs := range col {
				if i < len(recs) {
					if v := recs[i].Sample.DownMbps; v > best {
						best = v
					}
				}
			}
			p.perfCounts[ci][PerfLevel(best)]++
		}
		p.perfTotal++
	}

	// Per-record per-network scans: Figure 6 speed buckets and
	// Figure 8 area distributions. Consecutive records mostly share an
	// area and a speed bucket, so each record's sketches are looked up
	// only when those change.
	for _, n := range nets {
		recs := sh.Records[n]
		rows += len(recs)
		var areaSk, speedSk *stats.Sketch
		var area geo.AreaType
		bucket := -1
		for i := range recs {
			r := &recs[i]
			if areaSk == nil || r.Env.Area != area {
				area = r.Env.Area
				areaSk = sketchAt(p.area, netArea{n, area})
			}
			areaSk.Add(r.Sample.DownMbps)
			if area == geo.Rural && r.Env.SpeedKmh >= 1 {
				if b := int(r.Env.SpeedKmh) / 10 * 10; b != bucket {
					m := p.speed[n]
					if m == nil {
						m = make(map[int]*stats.Sketch)
						p.speed[n] = m
					}
					bucket, speedSk = b, sketchAt(m, b)
				}
				speedSk.Add(r.Sample.DownMbps)
			}
		}
	}

	// Timeline candidate: keep only the best seen so far.
	cand := &timelineData{Drive: sh.Drive, Route: sh.Route, State: sh.State, Seconds: len(fixes)}
	if cand.betterThan(p.timeline) && cand.betterThan(incumbent) {
		cand.X = make(map[channel.NetworkID][]float64, len(nets))
		cand.Y = make(map[channel.NetworkID][]float64, len(nets))
		for _, n := range nets {
			recs := sh.Records[n]
			xs := make([]float64, len(recs))
			ys := make([]float64, len(recs))
			for i := range recs {
				xs[i] = recs[i].Sample.At.Seconds()
				ys[i] = recs[i].Sample.DownMbps
			}
			cand.X[n], cand.Y[n] = xs, ys
		}
		p.timeline = cand
	}

	// Test windows.
	for _, t := range sh.Tests {
		rows++
		p.tests++
		p.outcomes[t.Outcome]++
		if t.Outcome == dataset.OutcomeFailed {
			p.skipped++
			continue
		}
		if kindIn(perSecondKinds, t.Kind) {
			sketchAt(p.perSec, bucketKey{t.Network, t.Kind}).AddSlice(t.Series)
		}
		if t.Kind == dataset.Ping {
			sketchAt(p.rtt, t.Network).AddSlice(t.RTTsMs)
		}
		if kindIn(retransKinds, t.Kind) {
			sketchAt(p.retrans, bucketKey{t.Network, t.Kind}).Add(t.RetransRate)
		}
		if kindIn(fluidKinds, t.Kind) {
			tr := testTrace(t)
			for _, flows := range fluidFlowCounts {
				got := dataset.FluidTCP{Flows: flows}.Run(tr, rngFor(info.Seed, t.ID, flows))
				sketchAt(p.fluid, fluidKey{t.Network, flows}).Add(got.MeanGoodputMbps)
			}
		}
	}
	return rows
}

// compact compacts every sketch of p, so that none holds the pending
// samples its merges deferred. Sum, like every read of a sketch,
// compacts it first.
func (p *partial) compact() {
	compactSketches(p.perSec)
	compactSketches(p.rtt)
	compactSketches(p.retrans)
	compactSketches(p.fluid)
	compactSketches(p.area)
	for _, m := range p.speed {
		compactSketches(m)
	}
}

func compactSketches[K comparable](m map[K]*stats.Sketch) {
	for _, s := range m {
		s.Sum()
	}
}

// merge folds o into p. Merging is associative and commutative for
// every field, so the reduction order cannot affect the result; the
// pipeline still merges in fixed worker order for determinism-by-
// construction rather than determinism-by-proof.
func (p *partial) merge(o *partial) {
	p.drives += o.drives
	for s := range o.states {
		p.states[s] = true
	}
	p.tests += o.tests
	for k, v := range o.outcomes {
		p.outcomes[k] += v
	}
	p.skipped += o.skipped
	for k, s := range o.perSec {
		sketchAt(p.perSec, k).Merge(s)
	}
	for k, s := range o.rtt {
		sketchAt(p.rtt, k).Merge(s)
	}
	for k, s := range o.retrans {
		sketchAt(p.retrans, k).Merge(s)
	}
	for k, s := range o.fluid {
		sketchAt(p.fluid, k).Merge(s)
	}
	for n, m := range o.speed {
		pm := p.speed[n]
		if pm == nil {
			pm = make(map[int]*stats.Sketch)
			p.speed[n] = pm
		}
		for b, s := range m {
			sketchAt(pm, b).Merge(s)
		}
	}
	for k, s := range o.area {
		sketchAt(p.area, k).Merge(s)
	}
	for k, v := range o.areaCounts {
		p.areaCounts[k] += v
	}
	for ci := range p.perfCounts {
		for lvl := 0; lvl < 4; lvl++ {
			p.perfCounts[ci][lvl] += o.perfCounts[ci][lvl]
		}
	}
	p.perfTotal += o.perfTotal
	if o.timeline != nil && o.timeline.betterThan(p.timeline) {
		p.timeline = o.timeline
	}
}

// StreamOptions configures a streaming analysis run.
type StreamOptions struct {
	// Workers sets the pool size; 0 (or below) means one per core
	// (GOMAXPROCS).
	Workers int
	// Catalog classifies the campaign's networks (nil = default).
	Catalog *channel.Catalog
	// Strict aborts the run on the first shard failure (the original
	// contract — right for golden comparisons and CI gates). The default
	// lenient mode retries transient failures and quarantines shards
	// that stay bad, recording them in the Completeness certificate.
	Strict bool
	// Metrics, when non-nil, instruments the run live:
	// stream.shards_total (gauge), stream.shards_done, stream.rows_done,
	// stream.worker.NN.shards, stream.retries, stream.quarantined,
	// stream.recovered_panics (counters) and stream.progress (gauge,
	// fraction of shards settled).
	Metrics *obs.Registry
	// Span, when non-nil, is the flight-recorder parent under which the
	// supervisor opens one child span per shard (worker-tagged, outcome
	// ok/retried/quarantined/cancelled; a retried span's detail names
	// the cause of each reload). Spans are per-shard, never per-record:
	// the accumulate hot path stays untouched.
	Span *obs.Span
	// OnQuarantine, when non-nil, is called once per quarantined shard
	// (lenient mode only), from the worker that dropped it — the
	// campaign supervisor hooks its post-mortem capture here. It must
	// not block for long: the worker holds no locks but its shard slot.
	OnQuarantine func(ShardFailure)
}

const (
	// maxRetries caps per-shard reloads after a transient failure.
	maxRetries = 2
	// retryBackoff is the delay before a shard's first reload, doubled
	// each attempt and capped at 20x, plus a deterministic jitter hashed
	// from (shard, attempt) — never a shared RNG, so a replay backs off
	// identically (faults.BackoffDelay).
	retryBackoff = 25 * time.Millisecond
)

// ValidateWorkers normalises a -workers flag value: negative is an
// error, 0 means one worker per core (GOMAXPROCS), positive passes
// through unchanged.
func ValidateWorkers(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("workers must be >= 0 (0 means one per core), got %d", n)
	}
	if n == 0 {
		return runtime.GOMAXPROCS(0), nil
	}
	return n, nil
}

// Shard-failure classes: the degradation taxonomy. Transient failures
// (I/O: the disk may answer differently next time) are retried;
// permanent ones (the bytes parse wrong and will keep parsing wrong)
// and poison shards (they panic the pipeline) are quarantined at once.
const (
	FailTransient = "transient"
	FailPermanent = "permanent"
	FailPanic     = "panic"
)

// classifyShardErr assigns a shard error to the degradation taxonomy.
// Anything wrapping an *fs.PathError came from the disk and is worth a
// retry; everything else is a content problem that retrying cannot fix.
func classifyShardErr(err error) string {
	var pe *fs.PathError
	if errors.As(err, &pe) {
		return FailTransient
	}
	return FailPermanent
}

// ShardFailure itemises one shard the pipeline could not ingest.
type ShardFailure struct {
	// Index and Drive locate the shard in plan order; Shard is its label.
	Index int
	Drive int
	Shard string
	// Attempts counts loads tried (1 + retries); Class is the failure's
	// taxonomy class (FailTransient exhausted its retries).
	Attempts int
	Class    string
	Err      string
}

func (f ShardFailure) String() string {
	return fmt.Sprintf("%s: %s after %d attempt(s): %s", f.Shard, f.Class, f.Attempts, f.Err)
}

// Completeness is the certificate attached to every streamed analysis:
// exactly how much of the planned campaign reached the figures and
// what was lost to which errors. A lenient run that quarantined shards
// still renders figures — this is the itemised record that they are
// partial.
type Completeness struct {
	// ShardsPlanned is the plan size; ShardsScanned the shards folded
	// into the result.
	ShardsPlanned int
	ShardsScanned int
	// ShardsRetried counts shards that needed at least one reload;
	// Retries counts the reloads themselves.
	ShardsRetried int
	Retries       int
	// ShardsQuarantined counts dropped shards, itemised in Quarantined;
	// RecoveredPanics counts worker panics converted to quarantines.
	ShardsQuarantined int
	RecoveredPanics   int
	Quarantined       []ShardFailure
}

// Complete reports whether every planned shard was ingested.
func (c *Completeness) Complete() bool {
	return c.ShardsScanned == c.ShardsPlanned && c.ShardsQuarantined == 0
}

// String renders the one-line certificate summary.
func (c *Completeness) String() string {
	s := fmt.Sprintf("%d/%d shards scanned", c.ShardsScanned, c.ShardsPlanned)
	if c.Retries > 0 {
		s += fmt.Sprintf(", %d retried (%d reloads)", c.ShardsRetried, c.Retries)
	}
	if c.ShardsQuarantined > 0 {
		s += fmt.Sprintf(", %d quarantined", c.ShardsQuarantined)
	}
	if c.RecoveredPanics > 0 {
		s += fmt.Sprintf(", %d recovered panics", c.RecoveredPanics)
	}
	return s
}

// Err returns nil for a complete run, else one error itemising every
// quarantined shard.
func (c *Completeness) Err() error {
	if c.Complete() {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "core: partial analysis: %s", c.String())
	for _, f := range c.Quarantined {
		fmt.Fprintf(&b, "\n  %s", f)
	}
	return errors.New(b.String())
}

// StreamAnalysis is the merged result of a sharded campaign scan, from
// which the aggregate figures render.
type StreamAnalysis struct {
	info    SourceInfo
	catalog *channel.Catalog
	p       *partial
	comp    Completeness
}

// Completeness returns the run's ingestion certificate.
func (sa *StreamAnalysis) Completeness() *Completeness { return &sa.comp }

// streamFigureIDs lists the figures the streaming path produces.
// Figure 10/11 (multipath scheduling) replay traces window by window
// through the Analyzer instead.
var streamFigureIDs = []string{
	"fig1", "fig3a", "fig3b", "fig3c", "fig4", "fig5", "fig6", "fig7",
	"fig8", "fig9", "eq1", "dataset",
}

// StreamFigureIDs returns the figure ids the streaming path renders.
func StreamFigureIDs() []string { return append([]string(nil), streamFigureIDs...) }

// shardOutcome is the supervisor's record of one processed shard.
type shardOutcome struct {
	local    *partial
	rows     int
	attempts int
	class    string
	err      error
	// causes holds one "attempt N: <error>" per reload, in order.
	causes []string
}

// loadShard calls src.Load with a panic fence: a source that panics
// poisons only its shard, not the worker.
func loadShard(src ShardSource, ref ShardRef) (sh *Shard, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			sh, err, panicked = nil, fmt.Errorf("core: load %s: panic: %v", ref.Label, r), true
		}
	}()
	sh, err = src.Load(ref)
	return
}

// accumulateShard folds sh into p behind the same panic fence. p is a
// fresh local partial, so a mid-fold panic cannot half-poison worker
// state; incumbent is the worker partial's current timeline best.
func accumulateShard(p *partial, sh *Shard, info SourceInfo, incumbent *timelineData) (rows int, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			rows, err, panicked = 0, fmt.Errorf("core: accumulate drive %d: panic: %v", sh.Drive, r), true
		}
	}()
	rows = p.accumulate(sh, info, info.Networks, incumbent)
	return
}

// processShard loads and folds one shard, retrying transient load
// failures with capped deterministic backoff and recording each
// reload's cause in the outcome. Panics (in the source or the
// accumulator) become poison outcomes instead of killing the worker. A context cancellation mid-backoff surfaces as a
// context.Canceled outcome the supervisor discards.
func processShard(ctx context.Context, src ShardSource, ref ShardRef, info SourceInfo,
	cols []fig9Column, incumbent *timelineData, opts *StreamOptions,
	onRetry func()) shardOutcome {

	out := shardOutcome{}
	for {
		out.attempts++
		sh, err, panicked := loadShard(src, ref)
		if err == nil {
			local := newPartial(cols)
			var rows int
			rows, err, panicked = accumulateShard(local, sh, info, incumbent)
			if err == nil {
				// A healed retry must not carry the previous attempt's
				// verdict out of the loop.
				out.local, out.rows = local, rows
				out.class, out.err = "", nil
				return out
			}
		}
		out.class, out.err = classifyShardErr(err), err
		if panicked {
			out.class = FailPanic
		}
		if out.class != FailTransient || out.attempts > maxRetries {
			return out
		}
		out.causes = append(out.causes, fmt.Sprintf("attempt %d: %v", out.attempts, err))
		onRetry()
		select {
		case <-ctx.Done():
			out.class, out.err = FailTransient, ctx.Err()
			return out
		case <-time.After(faults.BackoffDelay(retryBackoff, ref.Index, out.attempts)):
		}
	}
}

// StreamAnalyzeContext scans src's shards with a worker pool and
// returns the merged analysis. The result is bit-identical for every
// worker count: all float reductions flow through canonical sketches,
// everything else is exact integer arithmetic. Cancellation stops the
// supervisor promptly (no shard hand-off outlives ctx) and every worker
// goroutine exits before the call returns, so a SIGINT mid-campaign
// leaks nothing.
func StreamAnalyzeContext(ctx context.Context, src ShardSource, opts StreamOptions) (*StreamAnalysis, error) {
	info, err := src.Info()
	if err != nil {
		return nil, err
	}
	refs, err := src.Plan()
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	sa := &StreamAnalysis{info: info, catalog: opts.Catalog}
	cols := fig9Columns(sa.cellulars(), sa.satellites())

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	shardsDone := opts.Metrics.Counter("stream.shards_done")
	rowsDone := opts.Metrics.Counter("stream.rows_done")
	retriesC := opts.Metrics.Counter("stream.retries")
	quarantinedC := opts.Metrics.Counter("stream.quarantined")
	panicsC := opts.Metrics.Counter("stream.recovered_panics")
	progress := opts.Metrics.Gauge("stream.progress")
	opts.Metrics.Gauge("stream.shards_total").Set(float64(len(refs)))

	var (
		mu       sync.Mutex
		comp     = Completeness{ShardsPlanned: len(refs)}
		firstErr error
		settled  int
	)
	onRetry := func() {
		retriesC.Inc()
		mu.Lock()
		comp.Retries++
		mu.Unlock()
	}
	settle := func(n int) {
		mu.Lock()
		settled += n
		frac := float64(settled) / float64(max(len(refs), 1))
		mu.Unlock()
		progress.Set(frac)
	}

	// Shard-locals merge into one shared partial under mu, in arrival
	// order. Arrival order varies with scheduling, but every partial
	// field merges commutatively and associatively (sketches are
	// canonical, the rest is integer arithmetic, set union and a
	// total-order max), so the merged state — and every rendered byte —
	// is identical for any order; the cross-worker-count equivalence
	// tests lock that. One shared partial instead of one per worker also
	// keeps sketch memory flat in the worker count: each per-worker
	// partial would converge to nearly the full distinct-value space.
	ch := make(chan ShardRef)
	merged := newPartial(cols)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		workerShards := opts.Metrics.Counter(fmt.Sprintf("stream.worker.%02d.shards", w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ref := range ch {
				mu.Lock()
				incumbent := merged.timeline
				mu.Unlock()
				// One flight-recorder span per shard, tagged with the worker
				// that ran it so the report can chart pool utilization.
				span := opts.Span.Child(obs.SpanShard, obs.WorkerPrefix(w)+ref.Label)
				out := processShard(ctx, src, ref, info, cols, incumbent, &opts, onRetry)
				if out.err != nil {
					if ctx.Err() != nil {
						span.End(obs.SpanCancelled, ctx.Err().Error())
						return // run is aborting; not a shard verdict
					}
					mu.Lock()
					if out.attempts > 1 {
						comp.ShardsRetried++
					}
					if opts.Strict {
						if firstErr == nil {
							firstErr = fmt.Errorf("core: shard %s: %w", ref.Label, out.err)
						}
						mu.Unlock()
						span.End(obs.SpanFailed, out.err.Error())
						cancel()
						return
					}
					comp.ShardsQuarantined++
					if out.class == FailPanic {
						comp.RecoveredPanics++
						panicsC.Inc()
					}
					failure := ShardFailure{
						Index: ref.Index, Drive: ref.Drive, Shard: ref.Label,
						Attempts: out.attempts, Class: out.class, Err: out.err.Error(),
					}
					comp.Quarantined = append(comp.Quarantined, failure)
					mu.Unlock()
					quarantinedC.Inc()
					span.End(obs.SpanQuarantined, failure.String())
					if opts.OnQuarantine != nil {
						opts.OnQuarantine(failure)
					}
					settle(1)
					continue
				}
				mu.Lock()
				merged.merge(out.local)
				comp.ShardsScanned++
				if out.attempts > 1 {
					comp.ShardsRetried++
				}
				mu.Unlock()
				if out.attempts > 1 {
					span.End(obs.SpanRetried, fmt.Sprintf("ok after %d attempts; %s",
						out.attempts, strings.Join(out.causes, "; ")))
				} else {
					span.End(obs.SpanOK, "")
				}
				workerShards.Inc()
				shardsDone.Inc()
				rowsDone.Add(int64(out.rows))
				settle(1)
			}
		}()
	}

	go func() {
		defer close(ch)
		for _, ref := range refs {
			select {
			case <-ctx.Done():
				return
			case ch <- ref:
			}
		}
	}()
	wg.Wait()

	mu.Lock()
	fe := firstErr
	mu.Unlock()
	if fe != nil {
		return nil, fe
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	progress.Set(1)
	// The analysis outlives the merges: keep only canonical runs.
	merged.compact()
	sa.p = merged
	sort.Slice(comp.Quarantined, func(i, j int) bool {
		return comp.Quarantined[i].Index < comp.Quarantined[j].Index
	})
	sa.comp = comp
	return sa, nil
}

// Figures renders the aggregate figure set keyed by ID.
func (sa *StreamAnalysis) Figures() map[string]*Figure {
	figs := []*Figure{
		buildFigure1(sa),
		buildFigure3a(sa), buildFigure3b(sa), buildFigure3c(sa),
		buildFigure4(sa), buildFigure5(sa), buildFigure6(sa), buildFigure7(sa),
		buildFigure8(sa), buildFigure9(sa),
		buildEquation1(),
		buildDatasetSummary(sa),
	}
	out := make(map[string]*Figure, len(figs))
	for _, f := range figs {
		out[f.ID] = f
	}
	return out
}

func (sa *StreamAnalysis) networks() []channel.NetworkID {
	if len(sa.info.Networks) > 0 {
		return sa.info.Networks
	}
	return channel.Networks
}

func (sa *StreamAnalysis) cat() *channel.Catalog {
	if sa.catalog != nil {
		return sa.catalog
	}
	return channel.DefaultCatalog()
}

func (sa *StreamAnalysis) byClass(c channel.Class) []channel.NetworkID {
	cat := sa.cat()
	var out []channel.NetworkID
	for _, n := range sa.networks() {
		if s, ok := cat.Spec(n); ok && s.Class == c {
			out = append(out, n)
		}
	}
	return out
}

func (sa *StreamAnalysis) cellulars() []channel.NetworkID {
	return sa.byClass(channel.ClassCellular)
}

func (sa *StreamAnalysis) satellites() []channel.NetworkID {
	return sa.byClass(channel.ClassSatellite)
}
