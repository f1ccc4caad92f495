package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// options is one run of one workload.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workers  int
	size     sizes
	// tmp holds the run directories the workloads write.
	tmp string
	log io.Writer
}

// sizes fixes the input size of every workload. fullSize is what the
// benchmark measures; tinySize keeps the smoke test fast.
type sizes struct {
	// setups is how many times a run sets its workload up; setup_s is
	// the median.
	setups int
	// campaignScale is the campaign workload's scale, warmupScale the
	// scale of the warm-up campaign its set-up runs.
	campaignScale, warmupScale float64
	// corpusScale is the scale of the corpus reanalyze scans.
	corpusScale float64
	// replayScale is the scale of the dataset the fig10 windows come
	// from; fig10Window the length of its one window in seconds.
	replayScale float64
	fig10Window int
	// vsessionDur is the virtual length of the replay's vsession.
	vsessionDur time.Duration
	// probeWindow is the length of the kernel probe's replay window.
	probeWindow time.Duration
	// iperfDur and probes size the relay's TCP download and UDP ping.
	iperfDur time.Duration
	probes   int
	// golden says whether the outputs are checked against golden.json.
	golden bool
}

// fullSize keeps every rep at a few seconds (relay: nine), so that a
// 20 s run holds enough reps for a steady median: on a 2-vCPU host
// identical reps vary by about ±10% from one to the next.
var fullSize = sizes{
	setups:        3,
	campaignScale: 0.25, warmupScale: 0.05,
	corpusScale: 0.5,
	replayScale: 0.25, fig10Window: 15,
	vsessionDur: 45 * time.Second,
	probeWindow: 60 * time.Second,
	iperfDur:    4 * time.Second, probes: 2000,
	golden: true,
}

var tinySize = sizes{
	setups:        1,
	campaignScale: 0.02, warmupScale: 0.01,
	corpusScale: 0.02,
	replayScale: 0.02, fig10Window: 10,
	vsessionDur: 10 * time.Second,
	probeWindow: 10 * time.Second,
	iperfDur:    time.Second, probes: 100,
}

// workload is one benchmark workload. The harness calls setup (several
// times, with close in between), then run and finish once per rep.
type workload interface {
	// setup builds the inputs the reps read.
	setup() error
	// run does one rep, the only timed call. A non-nil tracer selects
	// the traced variant: the same work, called layer by layer with a
	// span around each call.
	run(tr *tracer) error
	// finish checks the rep's outputs and collects its counts.
	finish(wall time.Duration) repOut
	// close releases what setup built.
	close()
}

// prober is a workload with a kernel probe, run once per traced run
// after the reps.
type prober interface {
	probe(tr *tracer) (map[string]float64, error)
}

// repOut is what one rep produced besides its timing.
type repOut struct {
	// attempted and failed count the rep's operations.
	attempted, failed int64
	// problems lists the output checks that failed.
	problems []string
	// digests are outputs that must repeat exactly across reps (and
	// match golden.json for the golden seed).
	digests map[string]string
	// mbits is the useful payload the rep moved, in megabits; the
	// goodput is mbits over the rep's wall time unless goodputMbps is
	// set.
	mbits       float64
	goodputMbps float64
	// latencies are per-request latencies in ms; when empty the rep is
	// the request and its wall time the latency.
	latencies []float64
	// layers are per-layer metric values.
	layers map[string]float64
}

// perLayer are the metrics of a traced run, in the order and with the
// units BENCHMARK.json lists them.
var perLayer = []struct{ name, unit string }{
	{"campaign.stage.generate_s", "s"},
	{"campaign.stage.verify_s", "s"},
	{"campaign.stage.analyze_s", "s"},
	{"campaign.stage.render_s", "s"},
	{"campaign.supervisor_s", "s"},
	{"dataset.generate_s", "s"},
	{"dataset.samples_per_s", "1/s"},
	{"dataset.tests_per_s", "1/s"},
	{"store.export_s", "s"},
	{"store.bytes_written_mb", "MB"},
	{"store.syncs", "count"},
	{"store.renames", "count"},
	{"store.fsck_s", "s"},
	{"store.fsck_rows_per_s", "1/s"},
	{"store.bytes_read_mb", "MB"},
	{"core.stream_s", "s"},
	{"core.stream_rows_per_s", "1/s"},
	{"core.shards", "count"},
	{"core.figures_s", "s"},
	{"core.render_s", "s"},
	{"core.fig10_s", "s"},
	{"vsession.run_s", "s"},
	{"vsession.vsec_per_s", "s/s"},
	{"emu.pkts", "count"},
	{"emu.pkts_per_s", "1/s"},
	{"emu.queue_drops", "count"},
	{"tcp.segments", "count"},
	{"tcp.retransmits", "count"},
	{"tcp.rtos", "count"},
	{"mptcp.subflow_retransmits", "count"},
	{"netem.down_bytes", "bytes"},
	{"netem.drops", "count"},
	{"netem.cpu_ms_per_mb", "ms/MB"},
	{"netem.ping_gen_late_ms", "ms"},
	{"netem.rtt_p99_ms", "ms"},
	{"runtime.cpu_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
}

// measure runs o's workload and returns its metrics.
func measure(o options) (*runResult, error) {
	def := workloads[o.workload]
	w := def.new(o)
	defer w.close()
	if o.trace {
		return measureTraced(o, w)
	}
	return measureEndToEnd(o, w, def.timerBound)
}

// measureEndToEnd sets the workload up o.size.setups times, then runs
// untraced reps closed-loop for o.seconds. Unless the workload is timer
// bound, a calibration kernel run precedes each set-up and each rep, and
// scales its time (see calNominal).
func measureEndToEnd(o options, w workload, timerBound bool) (*runResult, error) {
	var cal []float64
	// factor returns the scale for the timing that follows it.
	factor := func() float64 {
		if timerBound {
			return 1
		}
		k := calibrationKernel().Seconds()
		cal = append(cal, k)
		return calNominal / k
	}

	var setups, rawSetups []float64
	for i := 0; i < o.size.setups; i++ {
		if i > 0 {
			w.close()
		}
		f := factor()
		runtime.GC()
		start := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(start).Seconds()
		rawSetups = append(rawSetups, d)
		setups = append(setups, d*f)
		fmt.Fprintf(o.log, "%s setup %d: %.3f s, scale %.3f\n", o.workload, i+1, d, f)
	}

	t := newTally(o)
	var lat, goodput, rawWall []float64
	var peak uint64
	err := repLoop(o.seconds, func(rep int) (time.Duration, error) {
		f := factor()
		heap := startHeapSampler(10 * time.Millisecond)
		m, err := timedRep(w, nil)
		peak = max(peak, heap.stop())
		if err != nil {
			return 0, err
		}
		out := w.finish(m.wall)
		t.add(rep, out)
		wall := m.wall.Seconds()
		fmt.Fprintf(o.log, "%s rep %d: %.3f s wall, %.3f s cpu, scale %.3f\n", o.workload, rep, wall, m.cpu.Seconds(), f)
		rawWall = append(rawWall, wall)
		if len(out.latencies) == 0 {
			out.latencies = []float64{wall * 1000}
		}
		for _, l := range out.latencies {
			lat = append(lat, l*f)
		}
		if out.goodputMbps == 0 {
			out.goodputMbps = out.mbits / wall
		}
		goodput = append(goodput, out.goodputMbps/f)
		return m.wall, nil
	})
	if err != nil {
		return nil, err
	}

	res := t.result()
	res.calibration = cal
	res.raw = map[string]float64{"rep_s": median(rawWall), "setup_s": median(rawSetups)}
	put := func(name, unit string, v float64, n int) {
		res.Metrics[name] = Metric{Value: v, Unit: unit}
		res.samples[name] = n
	}
	put("latency_ms", "ms", median(lat), len(lat))
	put("goodput_mbps", "Mbps", median(goodput), len(goodput))
	put("peak_heap_mb", "MB", float64(peak)/1e6, len(goodput))
	put("setup_s", "s", median(setups), len(setups))
	return res, nil
}

// measureTraced sets the workload up once, then runs pairs of reps: an
// untraced one, which the runtime metrics describe, and a traced one,
// which gives the per-layer spans and the tracing overhead.
func measureTraced(o options, w workload) (*runResult, error) {
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	tr := newTracer(o.workload)
	t := newTally(o)
	layers := map[string][]float64{}
	addLayers := func(m map[string]float64) {
		for k, v := range m {
			layers[k] = append(layers[k], v)
		}
	}
	var plainWall, tracedWall []float64
	err := repLoop(o.seconds, func(rep int) (time.Duration, error) {
		plain, err := timedRep(w, nil)
		if err != nil {
			return 0, err
		}
		out := w.finish(plain.wall)
		t.add(rep, out)
		addLayers(out.layers)
		plainWall = append(plainWall, plain.wall.Seconds())
		layers["runtime.cpu_s"] = append(layers["runtime.cpu_s"], plain.cpu.Seconds())
		layers["runtime.alloc_mb"] = append(layers["runtime.alloc_mb"], float64(plain.allocBytes)/1e6)
		layers["runtime.gc_cycles"] = append(layers["runtime.gc_cycles"], float64(plain.gcCycles))

		tr.rep = rep
		traced, err := timedRep(w, tr)
		if err != nil {
			return 0, err
		}
		out = w.finish(traced.wall)
		t.add(rep, out)
		addLayers(out.layers)
		tracedWall = append(tracedWall, traced.wall.Seconds())
		fmt.Fprintf(o.log, "%s rep %d: %.3f s untraced, %.3f s traced\n", o.workload, rep, plain.wall.Seconds(), traced.wall.Seconds())
		return plain.wall + traced.wall, nil
	})
	if err != nil {
		return nil, err
	}
	if p, ok := w.(prober); ok {
		tr.rep = 0
		m, err := p.probe(tr)
		if err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		addLayers(m)
	}
	layers["trace.overhead_pct"] = []float64{(median(tracedWall)/median(plainWall) - 1) * 100}

	res := t.result()
	res.tracer = tr
	for _, d := range perLayer {
		vals := layers[d.name]
		v := 0.0
		if len(vals) > 0 {
			v = median(vals)
		}
		res.Metrics[d.name] = Metric{Value: v, Unit: d.unit}
		res.samples[d.name] = len(vals)
	}
	return res, nil
}

// repLoop calls rep closed-loop: the next rep starts only after the
// previous one returned, and only while it is predicted (from the
// previous rep's duration) to end within budget. At least one rep runs.
func repLoop(budget time.Duration, rep func(n int) (time.Duration, error)) error {
	start := time.Now()
	for n := 1; ; n++ {
		d, err := rep(n)
		if err != nil {
			return fmt.Errorf("rep %d: %w", n, err)
		}
		if time.Since(start)+d > budget {
			return nil
		}
	}
}

// repMeasure is the cost of one rep's run call.
type repMeasure struct {
	wall, cpu  time.Duration
	allocBytes uint64
	gcCycles   uint64
}

// timedRep collects garbage left by earlier work, then times one run.
func timedRep(w workload, tr *tracer) (repMeasure, error) {
	runtime.GC()
	alloc0, gc0 := runtimeCounters()
	cpu0 := cpuTime()
	start := time.Now()
	err := w.run(tr)
	m := repMeasure{wall: time.Since(start), cpu: cpuTime() - cpu0}
	alloc1, gc1 := runtimeCounters()
	m.allocBytes, m.gcCycles = alloc1-alloc0, gc1-gc0
	return m, err
}

// tally accumulates the reps' operation counts and checks.
type tally struct {
	o                 options
	attempted, failed int64
	problems          []string
	// first holds each digest as the first rep produced it.
	first map[string]string
}

func newTally(o options) *tally { return &tally{o: o, first: map[string]string{}} }

func (t *tally) add(rep int, out repOut) {
	t.attempted += out.attempted
	t.failed += out.failed
	for _, p := range out.problems {
		t.fail("rep %d: %s", rep, p)
	}
	for _, k := range sortedKeys(out.digests) {
		got := out.digests[k]
		want, seen := t.first[k]
		if !seen {
			t.first[k] = got
			if g, ok := goldenFor(t.o)[k]; ok && g != got {
				t.fail("rep %d: %s digest %s, golden for seed %d is %s", rep, k, got, t.o.seed, g)
			}
			continue
		}
		if got != want {
			t.fail("rep %d: %s digest %s differs from rep 1's %s", rep, k, got, want)
		}
	}
}

// fail records a failed output check; it counts as a failed operation.
func (t *tally) fail(format string, args ...any) {
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
	t.failed++
}

func (t *tally) result() *runResult {
	return &runResult{
		Result: Result{
			Correct:   len(t.problems) == 0,
			Attempted: t.attempted,
			Failed:    t.failed,
			Metrics:   map[string]Metric{},
		},
		samples:  map[string]int{},
		problems: t.problems,
		digests:  t.first,
	}
}

// median returns the middle value of xs (the mean of the middle two
// for an even count); NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so -compare agrees with spreads computed by that function.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// percentile returns the p-th percentile (0..100) of xs by the
// nearest-rank method.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeCounters returns the bytes allocated and GC cycles completed
// since the process started.
func runtimeCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// heapSampler tracks the peak of the live heap objects, sampled on a
// fixed period.
type heapSampler struct {
	quit, done chan struct{}
	peak       uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	read()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-h.quit:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the peak in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.quit)
	<-h.done
	return h.peak
}
