package main

import (
	"context"
	"testing"

	"satcell/internal/core"
	"satcell/internal/dataset"
	"satcell/internal/store"
)

// TestGenerateRecordsScenarioSeed checks that a scenario seed, which
// overrides -seed, is the seed the export records, so a re-analysis of
// the export evaluates its tests with the seed that generated them.
func TestGenerateRecordsScenarioSeed(t *testing.T) {
	ctx := context.Background()
	export := func(cfg dataset.Config) (seed int64, cellTCP float64) {
		dir := t.TempDir()
		if _, _, err := generate(ctx, dir, cfg, false); err != nil {
			t.Fatal(err)
		}
		m, err := store.ReadManifestFS(nil, dir)
		if err != nil {
			t.Fatal(err)
		}
		src, err := core.OpenStoreSourceFS(nil, dir, store.Strict)
		if err != nil {
			t.Fatal(err)
		}
		sa, err := core.StreamAnalyzeContext(ctx, src, core.StreamOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return m.Seed, sa.Figures()["fig3a"].KPI("cell_tcp_mean_mbps")
	}
	seed, got := export(dataset.Config{Seed: 42, Scale: 0.02, Scenario: &dataset.Scenario{Seed: 7}})
	if seed != 7 {
		t.Errorf("MANIFEST records seed %d for data generated with seed 7", seed)
	}
	if _, want := export(dataset.Config{Seed: 7, Scale: 0.02}); got != want {
		t.Errorf("cell_tcp_mean_mbps = %v, a plain seed-7 export gives %v", got, want)
	}
}
