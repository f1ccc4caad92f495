package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"satcell/internal/report"
)

// This file renders a replayed TELEMETRY journal (flight.go) into the
// human-facing black-box report: the span waterfall per run, the
// retry/quarantine timeline, per-worker busy-time utilization, and the
// machine-readable run summary consumed by tooling. The renderer only
// reads a FlightLog, so it works identically inside satcell-campaign
// -report and satcell-analyze -telemetry.

// WorkerPrefix formats the worker tag instrumentation prepends to
// shard/unit span names ("w03/shard_000042"), which is how the report
// attributes leaf work to pool workers.
func WorkerPrefix(worker int) string { return fmt.Sprintf("w%02d/", worker) }

// splitWorker strips a WorkerPrefix tag off a span name, returning the
// tag ("" when untagged) and the bare name.
func splitWorker(name string) (worker, bare string) {
	if len(name) >= 4 && name[0] == 'w' && name[3] == '/' &&
		name[1] >= '0' && name[1] <= '9' && name[2] >= '0' && name[2] <= '9' {
		return name[:3], name[4:]
	}
	return "", name
}

// FlightSummary is the machine-readable digest of a replayed journal:
// one element per run plus journal-wide outcome totals. This is the
// -report-json / -telemetry-json output.
type FlightSummary struct {
	Runs     []RunSummary    `json:"runs"`
	Spans    int             `json:"spans"`
	Open     int             `json:"open_spans"`
	Outcomes map[Outcome]int `json:"outcomes"`
	// Postmortems counts captured post-mortem directories across runs.
	Postmortems int `json:"postmortems"`
}

// RunSummary digests one process run.
type RunSummary struct {
	Run      int             `json:"run"`
	WallUS   int64           `json:"wall_us"`
	Spans    int             `json:"spans"`
	Open     int             `json:"open_spans"`
	Outcomes map[Outcome]int `json:"outcomes"`
	Samples  int             `json:"metric_samples"`
	// Stages lists the run's stage spans in start order with their
	// attempt counts and final outcomes — the stitched timeline.
	Stages      []StageSummary  `json:"stages,omitempty"`
	Postmortems []PostmortemRef `json:"postmortems,omitempty"`
}

// StageSummary digests one stage span of a run.
type StageSummary struct {
	Stage      string  `json:"stage"`
	StartUS    int64   `json:"start_us"`
	DurationUS int64   `json:"duration_us"`
	Attempts   int     `json:"attempts"`
	Outcome    Outcome `json:"outcome,omitempty"`
	Open       bool    `json:"open,omitempty"`
}

// Summarize digests a replayed journal into its machine-readable form.
func Summarize(log *FlightLog) *FlightSummary {
	sum := &FlightSummary{Outcomes: make(map[Outcome]int)}
	for _, run := range log.Runs {
		rs := RunSummary{
			Run: run.Run, WallUS: run.LastUS, Spans: run.Spans, Open: run.Open,
			Outcomes: make(map[Outcome]int), Samples: len(run.Samples),
			Postmortems: run.Postmortems,
		}
		var walk func(*ReplaySpan)
		walk = func(s *ReplaySpan) {
			if s.Closed {
				rs.Outcomes[s.Outcome]++
				sum.Outcomes[s.Outcome]++
			}
			if s.Kind == SpanStage {
				st := StageSummary{
					Stage: s.Name, StartUS: s.StartUS,
					DurationUS: int64(s.Duration(run.LastUS) / time.Microsecond),
					Outcome:    s.Outcome, Open: !s.Closed,
				}
				for _, c := range s.Children {
					if c.Kind == SpanAttempt {
						st.Attempts++
					}
				}
				rs.Stages = append(rs.Stages, st)
			}
			for _, c := range s.Children {
				walk(c)
			}
		}
		for _, root := range run.Roots {
			walk(root)
		}
		sum.Spans += run.Spans
		sum.Open += run.Open
		sum.Postmortems += len(run.Postmortems)
		sum.Runs = append(sum.Runs, rs)
	}
	return sum
}

// RenderFlightReport renders the replayed journal as the run's black
// box: per-run span waterfalls on a shared character scale, the
// retry/quarantine/stall timeline, per-worker utilization bars, and the
// post-mortem index.
func RenderFlightReport(log *FlightLog) string {
	var b strings.Builder
	if len(log.Runs) == 0 {
		return "flight report: (no telemetry)\n"
	}
	fmt.Fprintf(&b, "flight report: %d run(s), %d spans (%d left open by crashes)\n",
		len(log.Runs), log.Spans(), log.Open())

	for _, run := range log.Runs {
		fmt.Fprintf(&b, "\n== run %d: %d spans, %d open, %d metric samples, wall %.3fs ==\n",
			run.Run, run.Spans, run.Open, len(run.Samples),
			time.Duration(run.LastUS*int64(time.Microsecond)).Seconds())
		renderWaterfall(&b, run)
		renderIncidents(&b, run)
		renderWorkers(&b, run)
	}
	return b.String()
}

// waterfallWidth is the bar area of the waterfall, in characters.
const waterfallWidth = 48

// renderWaterfall draws the run's span tree as an indented waterfall:
// each span a bar positioned on the run's elapsed axis, annotated with
// duration and outcome. Leaf fan-out (hundreds of shard/unit spans) is
// summarized per parent instead of listed, keeping the waterfall
// readable at fleet scale.
func renderWaterfall(b *strings.Builder, run *RunLog) {
	horizon := run.LastUS
	if horizon <= 0 {
		horizon = 1
	}
	bar := func(s *ReplaySpan) string {
		start := int(s.StartUS * waterfallWidth / horizon)
		endUS := s.EndUS
		if !s.Closed {
			endUS = horizon
		}
		end := int(endUS * waterfallWidth / horizon)
		// Offsets too large for the scale product wrap negative.
		start = max(0, min(start, waterfallWidth-1))
		if end <= start {
			end = start + 1
		}
		if end > waterfallWidth {
			end = waterfallWidth
		}
		cells := []byte(strings.Repeat(".", waterfallWidth))
		for i := start; i < end; i++ {
			cells[i] = '='
		}
		if !s.Closed {
			cells[end-1] = '>'
		}
		return string(cells)
	}
	var walk func(s *ReplaySpan, depth int)
	walk = func(s *ReplaySpan, depth int) {
		tag := string(s.Outcome)
		if !s.Closed {
			tag = "open"
		}
		_, name := splitWorker(s.Name)
		fmt.Fprintf(b, "  |%s| %s%s/%s %8.3fs %s\n",
			bar(s), strings.Repeat("  ", depth), s.Kind, name,
			s.Duration(run.LastUS).Seconds(), tag)
		leaves := 0
		for _, c := range s.Children {
			if c.Kind == SpanShard || c.Kind == SpanUnit {
				leaves++
				continue
			}
			walk(c, depth+1)
		}
		if leaves > 0 {
			byOutcome := make(map[string]int)
			for _, c := range s.Children {
				if c.Kind != SpanShard && c.Kind != SpanUnit {
					continue
				}
				if c.Closed {
					byOutcome[string(c.Outcome)]++
				} else {
					byOutcome["open"]++
				}
			}
			keys := make([]string, 0, len(byOutcome))
			for k := range byOutcome {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			parts := make([]string, 0, len(keys))
			for _, k := range keys {
				parts = append(parts, fmt.Sprintf("%d %s", byOutcome[k], k))
			}
			fmt.Fprintf(b, "  |%s| %s  +- %d leaf spans: %s\n",
				strings.Repeat(" ", waterfallWidth), strings.Repeat("  ", depth),
				leaves, strings.Join(parts, ", "))
		}
	}
	for _, root := range run.Roots {
		walk(root, 0)
	}
}

// renderIncidents lists everything that did not go cleanly, in elapsed
// order: retried/quarantined/stalled/failed spans, still-open spans,
// and the post-mortems captured for them.
func renderIncidents(b *strings.Builder, run *RunLog) {
	type incident struct {
		us   int64
		line string
	}
	var incs []incident
	var walk func(*ReplaySpan)
	walk = func(s *ReplaySpan) {
		_, name := splitWorker(s.Name)
		switch {
		case !s.Closed:
			incs = append(incs, incident{s.StartUS, fmt.Sprintf("%8.3fs  open       %s/%s (no end record: in flight at exit)",
				float64(s.StartUS)/1e6, s.Kind, name)})
		case s.Outcome != SpanOK:
			line := fmt.Sprintf("%8.3fs  %-10s %s/%s", float64(s.EndUS)/1e6, s.Outcome, s.Kind, name)
			if s.Detail != "" {
				line += ": " + s.Detail
			}
			incs = append(incs, incident{s.EndUS, line})
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, root := range run.Roots {
		walk(root)
	}
	for _, pm := range run.Postmortems {
		incs = append(incs, incident{pm.ElapsedUS, fmt.Sprintf("%8.3fs  postmortem %s attempt %d -> %s (%s)",
			float64(pm.ElapsedUS)/1e6, pm.Stage, pm.Attempt, pm.Dir, pm.Reason)})
	}
	if len(incs) == 0 {
		b.WriteString("  incidents: none\n")
		return
	}
	sort.SliceStable(incs, func(i, j int) bool { return incs[i].us < incs[j].us })
	b.WriteString("  incidents:\n")
	for _, in := range incs {
		b.WriteString("    " + in.line + "\n")
	}
}

// renderWorkers charts per-worker busy time from worker-tagged leaf
// spans (WorkerPrefix names), the utilization view of the pool.
func renderWorkers(b *strings.Builder, run *RunLog) {
	busy := make(map[string]time.Duration)
	var walk func(*ReplaySpan)
	walk = func(s *ReplaySpan) {
		if w, _ := splitWorker(s.Name); w != "" {
			busy[w] += s.Duration(run.LastUS)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, root := range run.Roots {
		walk(root)
	}
	if len(busy) == 0 {
		return
	}
	workers := make([]string, 0, len(busy))
	for w := range busy {
		workers = append(workers, w)
	}
	sort.Strings(workers)
	bars := make([]report.Bar, 0, len(workers))
	for _, w := range workers {
		bars = append(bars, report.Bar{Label: w, Value: busy[w].Seconds()})
	}
	b.WriteString("\n" + report.BarChart(
		fmt.Sprintf("run %d per-worker busy time", run.Run), "s", 40, bars))
}
