package dataset

import (
	"math"
	"testing"
)

// TestFullScaleMatchesPaperHeadlines regenerates the complete campaign
// and checks the §3.3 headline numbers: ~1,239 tests, ~9,083 minutes of
// traces, >3,800 km across five states. Run with -short to skip.
func TestFullScaleMatchesPaperHeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale campaign generation skipped in -short mode")
	}
	ds := Generate(Config{Seed: 42, Scale: 1.0})
	t.Logf("full scale: %d tests, %.0f trace-min, %.0f km, %d drives",
		len(ds.Tests), ds.TotalTestMin, ds.TotalKm, len(ds.Drives))

	if math.Abs(float64(len(ds.Tests))-paperTests)/paperTests > 0.20 {
		t.Errorf("tests = %d, paper %d (±20%%)", len(ds.Tests), paperTests)
	}
	if math.Abs(ds.TotalTestMin-paperTraceMin)/paperTraceMin > 0.20 {
		t.Errorf("trace minutes = %.0f, paper %d (±20%%)", ds.TotalTestMin, paperTraceMin)
	}
	if ds.TotalKm < PaperTotalKm {
		t.Errorf("distance = %.0f km, paper >%d", ds.TotalKm, PaperTotalKm)
	}
	states := map[string]bool{}
	for _, d := range ds.Drives {
		states[d.State] = true
	}
	if len(states) != 5 {
		t.Errorf("states = %d, want 5", len(states))
	}
}
