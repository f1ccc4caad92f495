package core

import (
	"fmt"
	"sort"
)

// DataHealthFigure summarises ingestion health as a Figure: how many
// rows the validating loader kept versus skipped, and the campaign's
// outcome mix — the same skip-and-count surface the streaming pipeline
// gives failed tests, extended to malformed artifact rows. The analysis
// CLI renders it ahead of the per-network summaries so dirty inputs are
// visible next to the numbers they could have distorted.
func DataHealthFigure(files, rows, skipped int, outcomes map[string]int) *Figure {
	f := &Figure{
		ID:     "health",
		Title:  "Dataset ingestion health",
		Kind:   Bars,
		YLabel: "tests",
	}
	f.addKPI("files_loaded", float64(files))
	f.addKPI("rows_loaded", float64(rows))
	f.addKPI("rows_skipped", float64(skipped))
	if rows+skipped > 0 {
		f.addKPI("rows_skipped_share", float64(skipped)/float64(rows+skipped))
	}
	names := make([]string, 0, len(outcomes))
	for name := range outcomes {
		names = append(names, name)
	}
	sort.Strings(names)
	s := Series{Label: "outcomes"}
	for i, name := range names {
		f.addKPI("outcome_"+name, float64(outcomes[name]))
		s.X = append(s.X, float64(i))
		s.Y = append(s.Y, float64(outcomes[name]))
	}
	if len(names) > 0 {
		f.Series = append(f.Series, s)
		f.Notes = append(f.Notes, fmt.Sprintf("outcome order: %v", names))
	}
	if skipped > 0 {
		f.Notes = append(f.Notes,
			fmt.Sprintf("%d malformed rows skipped by the lenient loader (rerun with -strict to fail fast, or satcell-analyze -fsck to audit the artifact)", skipped))
	}
	return f
}

// CompletenessFigure renders a streamed run's ingestion certificate as
// a Figure, next to the numbers a partial scan could have distorted:
// shards planned/scanned/retried/quarantined as KPIs, plus one note
// per quarantined shard naming the failure class and cause.
func CompletenessFigure(c *Completeness) *Figure {
	f := &Figure{
		ID:     "completeness",
		Title:  "Streamed scan completeness certificate",
		Kind:   Bars,
		YLabel: "shards",
	}
	f.addKPI("shards_planned", float64(c.ShardsPlanned))
	f.addKPI("shards_scanned", float64(c.ShardsScanned))
	f.addKPI("shards_retried", float64(c.ShardsRetried))
	f.addKPI("retries", float64(c.Retries))
	f.addKPI("shards_quarantined", float64(c.ShardsQuarantined))
	f.addKPI("recovered_panics", float64(c.RecoveredPanics))
	complete := 0.0
	if c.Complete() {
		complete = 1
	}
	f.addKPI("complete", complete)
	f.Series = append(f.Series, Series{
		Label: "shards",
		X:     []float64{0, 1, 2},
		Y: []float64{float64(c.ShardsPlanned), float64(c.ShardsScanned),
			float64(c.ShardsQuarantined)},
	})
	f.Notes = append(f.Notes, c.String())
	for _, q := range c.Quarantined {
		f.Notes = append(f.Notes, "quarantined "+q.String())
	}
	return f
}
