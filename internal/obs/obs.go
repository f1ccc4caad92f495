// Package obs is the stdlib-only observability layer of the toolkit:
// a lock-cheap metrics registry (atomic counters, gauges and
// fixed-bucket histograms), a bounded in-memory event tracer for the
// live packet path whose ring exports as JSONL spans keyed by monotonic
// elapsed time, the flight recorder that is the campaign and streaming
// paths' TELEMETRY timeline, a leveled logger
// (SATCELL_LOG=debug|info|warn), and a debug HTTP endpoint serving
// expvar-style metrics, the event ring, pprof profiles and component
// health.
//
// The paper's field toolkit earned its keep because the operators could
// watch the channel mid-drive — per-second throughput, RTT, loss,
// handover events. Our emulation stack needs the same in-flight
// visibility: queue depth, pacing backlog and drop decisions while
// mpshell is shaping traffic, not just the final CSV.
//
// Every instrumentation point is nil-safe: methods on a nil *Registry,
// *Counter, *Gauge, *Histogram or *Tracer are no-ops, so the live path
// carries a single nil check when no observer is attached.
// Observability reads the clock; it never advances it — attaching a
// registry or tracer must not change any deterministic output.
package obs

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Bounds are upper
// bounds (inclusive); one implicit overflow bucket catches everything
// above the last bound. Observations also accumulate a total count and
// sum, so means survive the bucketing.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is overflow
	total   atomic.Int64
	sumBits atomic.Uint64
}

// Satcell-appropriate bucket presets: throughput in Mbps, RTT in
// milliseconds and queue/backlog depths, matching the bands the paper's
// figures use (coverage levels at 20/50/100 Mbps, RTT medians in the
// tens of ms, sub-second pacing backlogs).
var (
	MbpsBuckets    = []float64{1, 5, 10, 20, 50, 100, 150, 200, 300, 500}
	RTTMsBuckets   = []float64{5, 10, 20, 30, 40, 60, 80, 100, 150, 250, 500, 1000}
	QueueMsBuckets = []float64{1, 5, 10, 25, 50, 100, 200, 400, 800}
	DepthBuckets   = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 1024}
)

func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one value. No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	idx := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[idx].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		nb := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nb) {
			return
		}
	}
}

// HistogramSnapshot is a consistent-enough read of a histogram: each
// field is individually atomic; the snapshot is not a single linearized
// point, which is fine for monitoring.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // len(Bounds)+1; last is overflow
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Mean   float64   `json:"mean"`
}

// Snapshot reads the histogram's current state (zero value on nil).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.total.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
	}
	return s
}

// Registry is a named collection of metrics. Handles are get-or-create
// by name, so a component restarted on the same registry (a supervised
// relay brought back after a kill window) keeps accumulating into the
// same counters. Lookup takes a mutex; hot paths hold the returned
// handle and touch only atomics.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() float64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() float64),
	}
}

// Counter returns the named counter, creating it if needed. A nil
// registry returns a nil handle whose methods are no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed (nil on a nil
// registry).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds if needed (nil on a nil registry). Bounds are only used
// at creation; later calls return the existing histogram unchanged.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// RegisterFunc registers a sampled gauge: fn is evaluated at snapshot
// time, so the instrumented hot path pays nothing. Re-registering a
// name replaces the function (a restarted component re-binds its
// depth/backlog probes). No-op on a nil registry.
func (r *Registry) RegisterFunc(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// Snapshot returns every metric's current value as a JSON-friendly map:
// counters as int64, gauges and funcs as float64, histograms as
// HistogramSnapshot. Nil registries snapshot empty.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	if r == nil {
		return out
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	funcs := make(map[string]func() float64, len(r.funcs))
	for k, v := range r.funcs {
		funcs[k] = v
	}
	r.mu.Unlock()

	// Funcs run outside the registry lock: they may themselves take
	// locks (a pacer backlog probe) and must not deadlock a concurrent
	// metric lookup.
	for k, c := range counters {
		out[k] = c.Value()
	}
	for k, g := range gauges {
		out[k] = g.Value()
	}
	for k, h := range hists {
		out[k] = h.Snapshot()
	}
	for k, fn := range funcs {
		out[k] = fn()
	}
	return out
}

// WriteJSON writes the snapshot as expvar-style indented JSON with
// sorted keys (encoding/json sorts map keys).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
