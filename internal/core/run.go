package core

import (
	"context"
	"sort"

	"satcell/internal/dataset"
)

// AllFigures renders every figure of ds keyed by ID: the aggregate set
// from one pass of the streaming pipeline under opts, then fig10 and
// fig11 from one pool of fig10's replays, fig11 folding the first
// window's. It returns the pass's completeness certificate alongside,
// and the pipeline's error when it rejects the dataset. Output is
// bit-identical for every opts.Workers and mp.Workers.
func AllFigures(ds *dataset.Dataset, mp MultipathConfig, opts StreamOptions) (map[string]*Figure, *Completeness, error) {
	sa, err := StreamAnalyzeContext(context.Background(), &DatasetSource{DS: ds}, opts)
	if err != nil {
		return nil, nil, err
	}
	out := sa.Figures()
	mp.defaults()
	windows, results := NewAnalyzer(ds).replaySetups(mp, mp.Windows, fig10Setups)
	out["fig10"], out["fig11"] = figure10(mp, windows, results), figure11(results)
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
