package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestSmoke runs every workload once, untraced and traced, at tiny
// input sizes, and checks that each run passes its output checks and
// emits exactly the metrics BENCHMARK.json names, with their units.
func TestSmoke(t *testing.T) {
	def, err := readDef(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, the benchmark runs %v", names, workloadNames())
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) { smoke(t, def, name) })
	}
}

func smoke(t *testing.T, def *benchDef, name string) {
	for _, traced := range []bool{false, true} {
		o := options{
			workload: name, seed: goldenSeed, trace: traced, workers: 2,
			size: tinySize, tmp: t.TempDir(), log: io.Discard,
		}
		res, err := measure(o)
		if err != nil {
			t.Fatalf("traced %v: %v", traced, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("traced %v: correct %v, %d attempted, %d failed: %v",
				traced, res.Correct, res.Attempted, res.Failed, res.problems)
		}
		want := def.EndToEnd
		if traced {
			want = def.PerLayer
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("traced %v: %d metrics, BENCHMARK.json names %d", traced, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("traced %v: metric %s missing", traced, m.Name)
			case got.Unit != m.Unit:
				t.Errorf("traced %v: %s in %q, BENCHMARK.json says %q", traced, m.Name, got.Unit, m.Unit)
			case !traced && got.Value <= 0:
				t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	}
	for _, c := range cases {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100.5, 99.5}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{50, 100, 150, 80, 120}
	cases := []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", steady, scale(steady, 1.02), "lower", "same"},
		{"slower", steady, scale(steady, 1.3), "lower", "worse"},
		{"faster", steady, scale(steady, 0.7), "lower", "better"},
		{"less goodput", steady, scale(steady, 0.7), "higher", "worse"},
		{"more goodput", steady, scale(steady, 1.3), "higher", "better"},
		{"too noisy", wide, scale(wide, 1.05), "lower", "unresolved"},
		{"noisy but apart", wide, scale(wide, 4), "lower", "worse"},
	}
	for _, c := range cases {
		if got, _ := verdict(c.a, c.b, c.better, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareExitCode(t *testing.T) {
	dir := t.TempDir()
	def := filepath.Join(dir, "BENCHMARK.json")
	write(t, def, `{"workloads": [{"name": "w", "why": "x"}],
		"end_to_end": [{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
		"per_layer": [{"name": "emu.pkts", "unit": "count", "better": "lower"}]}`)
	records := func(latencies ...string) string {
		var b strings.Builder
		for _, l := range latencies {
			b.WriteString(`{"workload": "w", "trace": 0, "result": {"correct": true, "attempted": 1, "failed": 0, "metrics": {"latency_ms": {"value": ` + l + `, "unit": "ms"}}}}` + "\n")
		}
		b.WriteString(`{"workload": "w", "trace": 1, "result": {"metrics": {"emu.pkts": {"value": 5, "unit": "count"}}}}` + "\n")
		return b.String()
	}
	base, same, slow := filepath.Join(dir, "a"), filepath.Join(dir, "b"), filepath.Join(dir, "c")
	write(t, base, records("10", "10.1", "9.9"))
	write(t, same, records("10.05", "9.95", "10"))
	write(t, slow, records("15", "15.2", "14.9"))

	var out bytes.Buffer
	if code := run([]string{"-benchmark", def, "-compare", base, same}, &out, io.Discard); code != 0 {
		t.Errorf("same sets: exit %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "same") || !strings.Contains(out.String(), "emu.pkts") {
		t.Errorf("compare output lacks the verdict or the per-layer row:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-benchmark", def, "-compare", base, slow}, &out, io.Discard); code != 1 {
		t.Errorf("slower set: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "worse") {
		t.Errorf("compare output lacks the worse verdict:\n%s", out.String())
	}
}

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
