package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"text/tabwriter"
)

// benchDef is the part of BENCHMARK.json the benchmark reads.
type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []defMetric `json:"end_to_end"`
	PerLayer []defMetric `json:"per_layer"`
}

type defMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readDef(path string) (*benchDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchDef
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// readRecords reads a file of -json records, one per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

func compareFiles(defPath, aPath, bPath string, w io.Writer) (worse bool, err error) {
	def, err := readDef(defPath)
	if err != nil {
		return false, err
	}
	a, err := readRecords(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return false, err
	}
	return compareSets(def, a, b, w), nil
}

// byWorkload groups the metric values of the records with the given
// trace setting by workload, then by metric.
func byWorkload(recs []record, trace int) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range recs {
		if r.Trace != trace {
			continue
		}
		m := out[r.Workload]
		if m == nil {
			m = map[string][]float64{}
			out[r.Workload] = m
		}
		for name, v := range r.Result.Metrics {
			m[name] = append(m[name], v.Value)
		}
	}
	return out
}

// compareSets writes one row per workload and end-to-end metric with
// each side's median and quartiles and a verdict, then the per-layer
// medians side by side. It reports whether any verdict is "worse".
func compareSets(def *benchDef, a, b []record, w io.Writer) bool {
	worse := false
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tchange\tbound\tverdict")
	ea, eb := byWorkload(a, 0), byWorkload(b, 0)
	for _, wl := range def.Workloads {
		for _, m := range def.EndToEnd {
			xa, xb := ea[wl.Name][m.Name], eb[wl.Name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t(n=%d)\t(n=%d)\t\t\tmissing\n", wl.Name, m.Name, len(xa), len(xb))
				continue
			}
			v, change := verdict(xa, xb, m.Better, m.Bound)
			worse = worse || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%s\n",
				wl.Name, m.Name, describe(xa), describe(xb), change*100, m.Bound*100, v)
		}
	}
	tw.Flush()

	la, lb := byWorkload(a, 1), byWorkload(b, 1)
	if len(la) == 0 && len(lb) == 0 {
		return worse
	}
	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tper-layer metric\tA median\tB median\tunit\t")
	for _, wl := range def.Workloads {
		for _, m := range def.PerLayer {
			xa, xb := la[wl.Name][m.Name], lb[wl.Name][m.Name]
			if len(xa) == 0 && len(xb) == 0 {
				continue
			}
			note := ""
			// Counts are exact: with the same seeds on both sides they
			// must not move.
			if m.Unit == "count" && len(xa) > 0 && len(xb) > 0 && median(xa) != median(xb) {
				note = "counts differ"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%s\n", wl.Name, m.Name, median(xa), median(xb), m.Unit, note)
		}
	}
	tw.Flush()
	return worse
}

// describe renders a sample as "median [q1, q3] (n)".
func describe(xs []float64) string {
	q := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g] (%d)", q[1], q[0], q[2], len(xs))
}

// verdict compares sample b against sample a for a metric where better
// is "lower" or "higher". change is b's median relative to a's. A
// median that moved by more than bound is "worse" or "better", one
// within it "same"; but when either side's spread (interquartile range
// over median) is wider than bound the result is "unresolved", unless
// every value of one side beats every value of the other.
func verdict(a, b []float64, better string, bound float64) (v string, change float64) {
	qa, qb := quartiles(a), quartiles(b)
	change = (qb[1] - qa[1]) / math.Abs(qa[1])
	loss := change
	if better == "higher" {
		loss = -change
	}
	spread := math.Max((qa[2]-qa[0])/math.Abs(qa[1]), (qb[2]-qb[0])/math.Abs(qb[1]))
	if spread > bound && !separated(a, b) {
		return "unresolved", change
	}
	switch {
	case loss > bound:
		return "worse", change
	case loss < -bound:
		return "better", change
	default:
		return "same", change
	}
}

// separated reports whether every value of one sample lies below every
// value of the other.
func separated(a, b []float64) bool {
	lo := func(xs []float64) float64 { return percentile(xs, 0) }
	hi := func(xs []float64) float64 { return percentile(xs, 100) }
	return hi(a) < lo(b) || hi(b) < lo(a)
}
