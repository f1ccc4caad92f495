package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"satcell/internal/campaign"
	"satcell/internal/core"
	"satcell/internal/dataset"
	"satcell/internal/obs"
	"satcell/internal/store"
)

// workloadDef builds a workload for a run.
type workloadDef struct {
	new func(options) workload
	// timerBound marks a workload whose timings follow timers and
	// sockets rather than the CPU; they are reported unscaled.
	timerBound bool
}

var workloads = map[string]workloadDef{
	"campaign":  {new: func(o options) workload { return &campaignWork{o: o} }},
	"reanalyze": {new: func(o options) workload { return &reanalyzeWork{o: o} }},
	"replay":    {new: func(o options) workload { return &replayWork{o: o} }},
	"relay":     {new: func(o options) workload { return &relayWork{o: o} }, timerBound: true},
}

func workloadNames() []string { return []string{"campaign", "reanalyze", "replay", "relay"} }

// goldenSeed is the seed golden.json holds digests for.
const goldenSeed = 42

//go:embed golden.json
var goldenJSON []byte

// goldenFor returns the golden digests of o's workload, or nil when the
// run has none (another seed, or a size other than fullSize).
func goldenFor(o options) map[string]string {
	if !o.size.golden || o.seed != goldenSeed {
		return nil
	}
	var all map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		panic("bench: golden.json: " + err.Error())
	}
	return all[o.workload]
}

// runCampaign runs the campaign exactly as
// `satcell-campaign -out dir -scale scale -seed seed -workers workers`
// does, minus its logging.
func runCampaign(dir string, seed int64, scale float64, workers int) (*campaign.Result, error) {
	return campaign.Run(context.Background(), campaign.Config{
		Dir: dir, Seed: seed, Scale: scale, Workers: workers,
		StallWindow: 30 * time.Second, StageRetries: 2, SampleInterval: time.Second,
		Status: &campaign.Status{}, Metrics: obs.NewRegistry(), Events: obs.NewTracer(0),
	})
}

// campaignWork runs the whole campaign pipeline — generate, export,
// verify, analyze, render — once per rep into a fresh run directory.
type campaignWork struct {
	o    options
	reps int
	// dir is the last rep's run directory.
	dir string
	// res is the last untraced rep's result; counts and layers describe
	// the last rep either way.
	res    *campaign.Result
	counts stageCounts
	layers map[string]float64
}

// stageCounts are the operations one pass over the pipeline attempted
// and lost.
type stageCounts struct {
	shardsExported, shardsPlanned int
	quarantined, retries          int
	fsckProblems                  int
}

func (c *campaignWork) setup() error {
	// A small campaign builds the lazily initialised tables and warms
	// the page cache, so the first timed rep pays neither.
	dir := filepath.Join(c.o.tmp, "warmup")
	defer os.RemoveAll(dir)
	res, err := runCampaign(dir, c.o.seed, c.o.size.warmupScale, c.o.workers)
	if err != nil {
		return err
	}
	return res.Completeness.Err()
}

func (c *campaignWork) close() {}

func (c *campaignWork) run(tr *tracer) error {
	c.reps++
	c.dir = filepath.Join(c.o.tmp, "campaign-"+strconv.Itoa(c.reps))
	c.res, c.layers = nil, nil
	if tr != nil {
		return c.runLayers(tr)
	}
	res, err := runCampaign(c.dir, c.o.seed, c.o.size.campaignScale, c.o.workers)
	if err != nil {
		return err
	}
	c.res = res
	c.counts = stageCounts{
		shardsExported: res.Written + res.Reused,
		quarantined:    len(res.Completeness.Gen),
		retries:        res.Retries + res.Stalls,
	}
	if s := res.Completeness.Stream; s != nil {
		c.counts.shardsPlanned = s.ShardsPlanned
		c.counts.quarantined += s.ShardsQuarantined
	}
	return nil
}

// runLayers does what campaign.Run does, with the same configurations,
// but calls each layer directly with a span around it and routes the
// store through a counting filesystem. The supervisor (lock, journals,
// sampler, watchdog) is left out; campaign.supervisor_s measures it.
func (c *campaignWork) runLayers(tr *tracer) error {
	ctx := context.Background()
	o := c.o
	reg := obs.NewRegistry()
	cfs := newCountingFS()
	data, figDir := filepath.Join(c.dir, "data"), filepath.Join(c.dir, "figures")
	for _, d := range []string{data, figDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	root := tr.start(0, "campaign.rep")
	defer tr.end(root, nil)
	L := map[string]float64{}
	c.layers = L

	var ds *dataset.Dataset
	gen, err := tr.layer(root, "dataset.generate", nil, func() (err error) {
		ds, err = dataset.GenerateContext(ctx, dataset.Config{
			Seed: o.seed, Scale: o.size.campaignScale, Workers: o.workers, Metrics: reg, Degrade: true,
		})
		return err
	})
	if err != nil {
		return err
	}
	L["dataset.generate_s"] = gen
	L["dataset.samples_per_s"] = float64(reg.Counter("dataset.samples_done").Value()) / gen
	L["dataset.tests_per_s"] = float64(reg.Counter("dataset.tests_done").Value()) / gen

	var stats store.ExportStats
	if L["store.export_s"], err = tr.layer(root, "store.export", cfs.totals, func() (err error) {
		stats, err = store.ExportDatasetContext(ctx, data, ds, store.ExportOptions{
			Seed: ds.Seed, Scale: o.size.campaignScale, Resume: true, Metrics: reg, FS: cfs,
		})
		return err
	}); err != nil {
		return err
	}

	a, err := analyzeLayers(tr, root, cfs, reg, data, o.workers, L)
	if err != nil {
		return err
	}
	if L["core.render_s"], err = tr.layer(root, "core.render", cfs.totals, func() error {
		files := make(map[string]string, len(a.figs))
		for id, f := range a.figs {
			files[id+".csv"] = f.CSV()
		}
		return store.ExportFiguresFS(cfs, figDir, o.seed, o.size.campaignScale, files)
	}); err != nil {
		return err
	}
	storeTotals(cfs, L)
	c.counts = stageCounts{
		shardsExported: stats.Written + stats.Reused,
		shardsPlanned:  a.comp.ShardsPlanned,
		quarantined:    len(ds.Quarantined) + a.comp.ShardsQuarantined,
		fsckProblems:   len(a.fsck.Problems),
	}
	return nil
}

func (c *campaignWork) finish(wall time.Duration) repOut {
	defer os.RemoveAll(c.dir)
	out := repOut{
		attempted: int64(c.counts.shardsExported + c.counts.shardsPlanned + len(campaign.Stages)),
		failed:    int64(c.counts.quarantined + c.counts.retries + c.counts.fsckProblems),
		digests:   map[string]string{},
		layers:    c.layers,
	}
	var bytes int64
	for _, sub := range []string{"data", "figures"} {
		dir := filepath.Join(c.dir, sub)
		d, err := store.DigestDir(dir)
		if err != nil {
			out.problems = append(out.problems, err.Error())
			continue
		}
		out.digests[sub] = d
		n, err := dirBytes(dir)
		if err != nil {
			out.problems = append(out.problems, err.Error())
		}
		bytes += n
	}
	out.mbits = float64(bytes) * 8 / 1e6
	if c.res != nil {
		layers, err := stageLayers(c.dir, wall)
		if err != nil {
			out.problems = append(out.problems, err.Error())
		}
		out.layers = layers
	}
	return out
}

// stageLayers reads the stage spans of a finished run directory from
// its TELEMETRY journal. The supervisor's share is the rep's wall time
// that no stage span covers.
func stageLayers(dir string, wall time.Duration) (map[string]float64, error) {
	_, log, err := campaign.ReadTelemetry(nil, dir)
	if err != nil {
		return nil, err
	}
	sum := obs.Summarize(log)
	if len(sum.Runs) == 0 {
		return nil, fmt.Errorf("campaign: %s holds no telemetry run", dir)
	}
	L := map[string]float64{}
	var stages float64
	for _, st := range sum.Runs[len(sum.Runs)-1].Stages {
		s := float64(st.DurationUS) / 1e6
		L["campaign.stage."+st.Stage+"_s"] = s
		stages += s
	}
	L["campaign.supervisor_s"] = wall.Seconds() - stages
	return L, nil
}

// analysis is what one verify-and-analyze pass over a store directory
// produced.
type analysis struct {
	fsck *store.FsckReport
	comp *core.Completeness
	figs map[string]*core.Figure
}

// analyzeLayers runs the verify, stream and figure layers over a store
// directory, each in a span, with the configurations the campaign uses.
func analyzeLayers(tr *tracer, root int, cfs *countingFS, reg *obs.Registry, data string, workers int, L map[string]float64) (*analysis, error) {
	a := &analysis{}
	var err error
	if L["store.fsck_s"], err = tr.layer(root, "store.fsck", cfs.totals, func() (err error) {
		a.fsck, err = store.FsckFS(cfs, data)
		return err
	}); err != nil {
		return nil, err
	}
	L["store.fsck_rows_per_s"] = float64(a.fsck.RowsChecked) / L["store.fsck_s"]

	var sa *core.StreamAnalysis
	if L["core.stream_s"], err = tr.layer(root, "core.stream", cfs.totals, func() error {
		src, err := core.OpenStoreSourceFS(cfs, data, store.Lenient)
		if err != nil {
			return err
		}
		sa, err = core.StreamAnalyzeContext(context.Background(), src, core.StreamOptions{Workers: workers, Metrics: reg})
		return err
	}); err != nil {
		return nil, err
	}
	L["core.stream_rows_per_s"] = float64(reg.Counter("stream.rows_done").Value()) / L["core.stream_s"]
	L["core.shards"] = float64(reg.Counter("stream.shards_done").Value())
	a.comp = sa.Completeness()

	L["core.figures_s"], _ = tr.layer(root, "core.figures", nil, func() error {
		a.figs = sa.Figures()
		return nil
	})
	return a, nil
}

// storeTotals records the counting filesystem's totals as layer
// metrics.
func storeTotals(cfs *countingFS, L map[string]float64) {
	t := cfs.totals()
	L["store.bytes_written_mb"] = float64(t["bytes_written"]) / 1e6
	L["store.bytes_read_mb"] = float64(t["bytes_read"]) / 1e6
	L["store.syncs"] = float64(t["syncs"])
	L["store.renames"] = float64(t["renames"])
}

// dirBytes returns the total size of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// reanalyzeWork re-derives every figure from a corpus the set-up
// exported: fsck, then a lenient streaming analysis, then the figures.
type reanalyzeWork struct {
	o      options
	setups int
	// corpus is the run directory of the campaign that exported the
	// corpus; want holds the figure CSVs that campaign rendered, by
	// file name; mbits is the corpus size.
	corpus string
	want   map[string]string
	mbits  float64
	// The last rep's outputs.
	a      *analysis
	layers map[string]float64
}

func (r *reanalyzeWork) setup() error {
	r.setups++
	r.corpus = filepath.Join(r.o.tmp, "corpus-"+strconv.Itoa(r.setups))
	res, err := runCampaign(r.corpus, r.o.seed, r.o.size.corpusScale, r.o.workers)
	if err != nil {
		return err
	}
	if err := res.Completeness.Err(); err != nil {
		return err
	}
	r.want = map[string]string{}
	entries, err := os.ReadDir(res.FiguresDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.Name() == store.ManifestName {
			continue
		}
		b, err := os.ReadFile(filepath.Join(res.FiguresDir, e.Name()))
		if err != nil {
			return err
		}
		r.want[e.Name()] = string(b)
	}
	n, err := dirBytes(res.DataDir)
	r.mbits = float64(n) * 8 / 1e6
	return err
}

func (r *reanalyzeWork) close() {
	if r.corpus != "" {
		os.RemoveAll(r.corpus)
	}
}

func (r *reanalyzeWork) run(tr *tracer) error {
	data := filepath.Join(r.corpus, "data")
	r.a, r.layers = &analysis{}, nil
	if tr != nil {
		L := map[string]float64{}
		cfs := newCountingFS()
		root := tr.start(0, "reanalyze.rep")
		defer tr.end(root, nil)
		a, err := analyzeLayers(tr, root, cfs, obs.NewRegistry(), data, r.o.workers, L)
		if err != nil {
			return err
		}
		storeTotals(cfs, L)
		r.a, r.layers = a, L
		return nil
	}
	var err error
	if r.a.fsck, err = store.FsckFS(nil, data); err != nil {
		return err
	}
	src, err := core.OpenStoreSourceFS(nil, data, store.Lenient)
	if err != nil {
		return err
	}
	sa, err := core.StreamAnalyzeContext(context.Background(), src, core.StreamOptions{Workers: r.o.workers})
	if err != nil {
		return err
	}
	r.a.comp, r.a.figs = sa.Completeness(), sa.Figures()
	return nil
}

func (r *reanalyzeWork) finish(time.Duration) repOut {
	a := r.a
	out := repOut{
		attempted: int64(a.fsck.FilesChecked + a.comp.ShardsPlanned),
		failed:    int64(len(a.fsck.Problems) + a.comp.ShardsQuarantined),
		mbits:     r.mbits,
		layers:    r.layers,
	}
	got := map[string]string{}
	for id, f := range a.figs {
		got[id+".csv"] = f.CSV()
	}
	for _, name := range sortedKeys(r.want) {
		if got[name] != r.want[name] {
			out.problems = append(out.problems, fmt.Sprintf("%s differs from the campaign's rendering", name))
		}
	}
	if len(got) != len(r.want) {
		out.problems = append(out.problems, fmt.Sprintf("%d figures, the campaign rendered %d", len(got), len(r.want)))
	}
	out.digests = map[string]string{"figures": digestFiles(got)}
	return out
}

// digestFiles hashes named contents in name order.
func digestFiles(files map[string]string) string {
	h := sha256.New()
	for _, n := range sortedKeys(files) {
		fmt.Fprintf(h, "file %s\n%s", n, files[n])
	}
	return hex.EncodeToString(h.Sum(nil))
}
