// Command bench is satcell's benchmark. It runs one of four workloads
// (campaign, reanalyze, replay, relay) in this process, checks the
// workload's outputs, and prints one JSON object as the last line of
// standard output: the end-to-end metrics, or with -trace 1 the
// per-layer metrics of a traced run. A human-readable table of the
// same metrics, with sample counts, goes to standard error.
//
//	bash bench/run.sh -workload campaign -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -workload replay -trace 1 -spans spans.json
//	bash bench/run.sh -compare set1.jsonl set2.jsonl
//
// README.md describes the workloads, the metrics and the layers each
// metric belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = fs.Int64("seed", 42, "workload seed; every input is generated from it")
		seconds  = fs.Float64("seconds", 20, "measuring time; reps start while they are predicted to end within it, and at least one runs")
		trace    = fs.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
		workers  = fs.Int("workers", runtime.NumCPU(), "worker goroutines for generation and analysis")
		jsonOut  = fs.String("json", "", "append this run's record (result, sample counts, host) as one JSON line to this file")
		spansOut = fs.String("spans", "", "with -trace 1, write the recorded spans as JSON to this file")
		compare  = fs.Bool("compare", false, "compare two files of -json records: -compare a.jsonl b.jsonl")
		defPath  = fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the metrics and their bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two record files")
			return 2
		}
		worse, err := compareFiles(*defPath, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if worse {
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *workers < 1 {
		fmt.Fprintln(stderr, "bench: -workers must be at least 1")
		return 2
	}
	if *seconds < 0 {
		fmt.Fprintln(stderr, "bench: -seconds must not be negative")
		return 2
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}

	tmp, err := runRoot()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	o := options{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		workers:  *workers,
		size:     fullSize,
		tmp:      tmp,
		log:      stderr,
	}
	res, err := measure(o)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	printTable(stderr, o, res)
	if *spansOut != "" && res.tracer != nil {
		if err := res.tracer.writeFile(*spansOut); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if *jsonOut != "" {
		if err := appendRecord(*jsonOut, o, res); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res.Result)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// runRoot makes the directory every run directory of this process
// lives in, under .bench_build in the working directory, so the
// benchmark writes only inside the checkout it runs from.
func runRoot() (string, error) {
	if err := os.MkdirAll(filepath.Join(".bench_build", "tmp"), 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(filepath.Join(".bench_build", "tmp"), "run-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

// Result is the JSON object printed as the last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Metric is one named measurement.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is a finished run: the printed Result plus what the table,
// the record file and the span file need.
type runResult struct {
	Result
	// samples is the number of measurements behind each metric.
	samples map[string]int
	// problems lists every failed output check.
	problems []string
	// digests are the checked outputs, as golden.json records them.
	digests map[string]string
	// calibration holds the kernel times the CPU-bound timings were
	// scaled by (none for a timer-bound workload); raw holds the median
	// rep and set-up times before scaling.
	calibration []float64
	raw         map[string]float64
	tracer      *tracer
}

// printTable writes the metrics, their units and sample counts, and
// any failed check, to w.
func printTable(w io.Writer, o options, res *runResult) {
	kind := "end-to-end"
	if o.trace {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "%s: seed %d, %s metrics, %d attempted, %d failed\n",
		o.workload, o.seed, kind, res.Attempted, res.Failed)
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-32s %14.4f %-8s n=%d\n", name, m.Value, m.Unit, res.samples[name])
	}
	if len(res.calibration) > 0 {
		fmt.Fprintf(w, "  calibration kernel median %.4f s (nominal %.3f s, n=%d)\n",
			median(res.calibration), calNominal, len(res.calibration))
	}
	for _, name := range sortedKeys(res.raw) {
		fmt.Fprintf(w, "  unscaled median %-16s %14.4f s\n", name, res.raw[name])
	}
	for _, k := range sortedKeys(res.digests) {
		fmt.Fprintf(w, "  digest %-25s %s\n", k, res.digests[k])
	}
	for _, p := range res.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
}

// record is one line of a -json file; -compare reads them back.
type record struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Trace    int            `json:"trace"`
	Seconds  float64        `json:"seconds"`
	Workers  int            `json:"workers"`
	Host     hostInfo       `json:"host"`
	Samples  map[string]int `json:"samples"`
	Result   Result         `json:"result"`
	// Calibration and Unscaled record how the CPU-bound timings were
	// scaled (untraced runs only).
	Calibration []float64          `json:"calibration_s,omitempty"`
	Unscaled    map[string]float64 `json:"unscaled,omitempty"`
}

// hostInfo identifies the machine a record was measured on.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
}

func currentHost() hostInfo {
	h := hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	// The CPU model is informational; a host without /proc/cpuinfo
	// records it as unknown.
	h.CPU = "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func appendRecord(path string, o options, res *runResult) error {
	rec := record{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds.Seconds(), Workers: o.workers,
		Host: currentHost(), Samples: res.samples, Result: res.Result,
		Calibration: res.calibration, Unscaled: res.raw,
	}
	if o.trace {
		rec.Trace = 1
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
