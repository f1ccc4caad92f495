package core

import (
	"context"
	"sort"

	"satcell/internal/dataset"
)

// RunConfig bundles everything needed to regenerate the evaluation.
type RunConfig struct {
	Dataset   dataset.Config
	Multipath MultipathConfig
}

// AllFigures renders every figure of ds keyed by ID: the aggregate set
// from one pass of the streaming pipeline under opts, then the
// packet-level fig10/fig11 replays. It returns the pass's completeness
// certificate alongside, and the pipeline's error when it rejects the
// dataset. The replays take opts.Workers when mp.Workers is 0. Output
// is bit-identical for every opts.Workers and mp.Workers.
func AllFigures(ds *dataset.Dataset, mp MultipathConfig, opts StreamOptions) (map[string]*Figure, *Completeness, error) {
	if mp.Workers == 0 {
		mp.Workers = opts.Workers
	}
	sa, err := StreamAnalyzeContext(context.Background(), &DatasetSource{DS: ds}, opts)
	if err != nil {
		return nil, nil, err
	}
	out := sa.Figures()
	a := NewAnalyzer(ds)
	for _, f := range []*Figure{a.Figure10(mp), a.Figure11(mp)} {
		out[f.ID] = f
	}
	return out, sa.Completeness(), nil
}

// FigureIDs returns the sorted figure identifiers of a figure map.
func FigureIDs(figs map[string]*Figure) []string {
	ids := make([]string, 0, len(figs))
	for id := range figs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
