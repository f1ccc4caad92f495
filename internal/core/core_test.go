package core

import (
	"strings"
	"sync"
	"testing"

	"satcell/internal/dataset"
)

// The calibration dataset is expensive enough to share across tests.
var (
	calOnce sync.Once
	calFigs map[string]*Figure
)

func calibration(t *testing.T) map[string]*Figure {
	t.Helper()
	calOnce.Do(func() {
		ds := dataset.Generate(dataset.Config{Seed: 42, Scale: 0.30})
		mp := MultipathConfig{WindowSeconds: 150, Windows: 2}
		var err error
		calFigs, _, err = AllFigures(ds, mp, StreamOptions{Strict: true})
		if err != nil {
			panic(err)
		}
	})
	return calFigs
}

// TestPaperTargets is the reproduction gate: every scalar claim tracked
// from the paper must land inside its acceptance band.
func TestPaperTargets(t *testing.T) {
	figs := calibration(t)
	for _, row := range Experiments(figs) {
		if row.Relation {
			continue
		}
		if !row.OK {
			t.Errorf("%s: %s = %.4g outside [%.4g, %.4g] (paper: %.4g)",
				row.FigureID, row.Name, row.Measured, row.Lo, row.Hi, row.Paper)
		}
	}
}

// TestPaperOrderings checks the relational claims (who wins where).
func TestPaperOrderings(t *testing.T) {
	figs := calibration(t)
	for _, row := range Experiments(figs) {
		if !row.Relation {
			continue
		}
		if !row.OK {
			t.Errorf("%s: ordering claim failed: %s (measured %.4g)",
				row.FigureID, row.Name, row.Measured)
		}
	}
}

func TestAllFiguresPresent(t *testing.T) {
	figs := calibration(t)
	want := []string{
		"fig1", "fig3a", "fig3b", "fig3c", "fig4", "fig5", "fig6",
		"fig7", "fig8", "fig9", "fig10", "fig11", "eq1", "dataset",
	}
	for _, id := range want {
		f, ok := figs[id]
		if !ok {
			t.Fatalf("missing figure %s", id)
		}
		if f.Title == "" {
			t.Fatalf("figure %s has no title", id)
		}
	}
	ids := FigureIDs(figs)
	if len(ids) != len(want) {
		t.Fatalf("figure count %d != %d", len(ids), len(want))
	}
}

func TestFigureRenderAndCSV(t *testing.T) {
	figs := calibration(t)
	for _, id := range FigureIDs(figs) {
		f := figs[id]
		text := f.Render()
		if !strings.Contains(text, f.Title) {
			t.Fatalf("%s render missing title", id)
		}
		csv := f.CSV()
		if !strings.HasPrefix(csv, "series,x,y\n") {
			t.Fatalf("%s CSV header wrong", id)
		}
	}
}

func TestExperimentsTableRenders(t *testing.T) {
	figs := calibration(t)
	rows := Experiments(figs)
	if len(rows) < 20 {
		t.Fatalf("only %d experiment rows", len(rows))
	}
	md := RenderExperiments(rows)
	if !strings.Contains(md, "| Figure | Claim |") {
		t.Fatal("markdown header missing")
	}
	if strings.Count(md, "\n") < len(rows) {
		t.Fatal("markdown row count wrong")
	}
}

func TestDatasetSummaryKPIs(t *testing.T) {
	figs := calibration(t)
	ds := figs["dataset"]
	if ds.KPI("states") != 5 {
		t.Fatalf("states = %v, want 5", ds.KPI("states"))
	}
	if ds.KPI("tests") <= 0 || ds.KPI("distance_km") <= 0 {
		t.Fatal("empty dataset summary")
	}
}

func TestEquation1Exact(t *testing.T) {
	figs := calibration(t)
	got := figs["eq1"].KPI("latency_550km_ms")
	if got < 1.83 || got > 1.84 {
		t.Fatalf("Eq.(1) latency = %v ms, want 1.835", got)
	}
}
