package satcell_test

import (
	"bytes"
	"strings"
	"testing"

	"satcell"
	"satcell/internal/core"
	"satcell/internal/obs"
)

func TestWorldEndToEnd(t *testing.T) {
	world := satcell.NewWorld(7)
	ds := world.GenerateDataset(satcell.DatasetOptions{Scale: 0.03})
	if len(ds.Tests) == 0 {
		t.Fatal("no tests generated")
	}
	fig := world.Figure(ds, "fig3b", satcell.FigureOptions{})
	if fig == nil || fig.KPI("mob_mean_mbps") <= 0 {
		t.Fatal("fig3b KPI missing")
	}
	if world.Figure(ds, "nope", satcell.FigureOptions{}) != nil {
		t.Fatal("unknown figure should be nil")
	}
}

func TestWorldDeterminism(t *testing.T) {
	a := satcell.NewWorld(11).GenerateDataset(satcell.DatasetOptions{Scale: 0.02})
	b := satcell.NewWorld(11).GenerateDataset(satcell.DatasetOptions{Scale: 0.02})
	if len(a.Tests) != len(b.Tests) {
		t.Fatal("dataset generation not deterministic")
	}
	for i := range a.Tests {
		if a.Tests[i].ThroughputMbps != b.Tests[i].ThroughputMbps {
			t.Fatalf("test %d differs", i)
		}
	}
}

func TestExperimentsFacade(t *testing.T) {
	world := satcell.NewWorld(5)
	ds := world.GenerateDataset(satcell.DatasetOptions{Scale: 0.05})
	figs, comp, err := world.Figures(ds, satcell.FigureOptions{
		MultipathWindowSeconds: 60, MultipathWindows: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !comp.Complete() {
		t.Fatalf("incomplete aggregate pass: %s", comp)
	}
	if len(satcell.FigureIDs(figs)) < 13 {
		t.Fatalf("missing figures: %v", satcell.FigureIDs(figs))
	}
	rows := satcell.Experiments(figs)
	if len(rows) < 20 {
		t.Fatalf("experiment record too short: %d", len(rows))
	}
	md := satcell.RenderExperiments(rows)
	if !strings.Contains(md, "| Figure | Claim |") {
		t.Fatal("markdown render broken")
	}
}

// TestFacadeMalformedDatasetFailsLoudly: a test claiming a drive the
// dataset does not have is the pipeline's itemised error from Figures
// and the same message as a panic from the error-less Figure.
func TestFacadeMalformedDatasetFailsLoudly(t *testing.T) {
	world := satcell.NewWorld(1)
	ds := &satcell.Dataset{Tests: []satcell.Test{{ID: 3, Drive: 0}}}
	const want = "test 3 claims drive 0 of 0"
	figs, comp, err := world.Figures(ds, satcell.FigureOptions{})
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Figures error = %v, want one naming %q", err, want)
	}
	if figs != nil || comp != nil {
		t.Fatal("Figures returned figures alongside its error")
	}
	defer func() {
		r := recover()
		if e, ok := r.(error); !ok || !strings.Contains(e.Error(), want) {
			t.Fatalf("Figure panicked with %v, want an error naming %q", r, want)
		}
	}()
	world.Figure(ds, "fig3b", satcell.FigureOptions{})
}

// TestFacadeFigureMatchesFigures: every aggregate figure World.Figure
// renders alone is byte-identical to the same figure from Figures, and
// Figure honours Workers and reports the pass's progress to Metrics.
func TestFacadeFigureMatchesFigures(t *testing.T) {
	world := satcell.NewWorld(9)
	ds := world.GenerateDataset(satcell.DatasetOptions{Scale: 0.02})
	opts := satcell.FigureOptions{MultipathWindowSeconds: 8, MultipathWindows: 1, Workers: 2}
	figs, _, err := world.Figures(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range core.StreamFigureIDs() {
		opts.Metrics = obs.NewRegistry()
		f := world.Figure(ds, id, opts)
		if f == nil || figs[id] == nil {
			t.Fatalf("%s: Figure %v, Figures %v", id, f, figs[id])
		}
		if got, want := f.CSV(), figs[id].CSV(); got != want {
			t.Errorf("%s: Figure CSV differs from Figures\n%s\nvs\n%s", id, got, want)
		}
		if n := opts.Metrics.Counter("stream.shards_done").Value(); n <= 0 {
			t.Errorf("%s: stream.shards_done = %d after Figure, want > 0", id, n)
		}
	}
}

func TestTraceCSVFacade(t *testing.T) {
	world := satcell.NewWorld(3)
	ds := world.GenerateDataset(satcell.DatasetOptions{Scale: 0.02})
	tr := ds.Drives[0].Trace(satcell.StarlinkMobility)
	var buf bytes.Buffer
	if err := satcell.WriteTraceCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := satcell.ReadTraceCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Samples) != len(tr.Samples) {
		t.Fatal("round trip lost samples")
	}
	var mm bytes.Buffer
	if err := satcell.WriteMahimahi(&mm, tr, false); err != nil {
		t.Fatal(err)
	}
	if mm.Len() == 0 {
		t.Fatal("empty mahimahi trace")
	}
}
