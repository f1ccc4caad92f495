package store

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"satcell/internal/channel"
	"satcell/internal/dataset"
	"satcell/internal/obs"
	"satcell/internal/trace"
)

// DatasetTool is the manifest tool tag of drivegen-shaped exports.
const DatasetTool = "drivegen"

// ExportOptions configures ExportDatasetContext and StreamDatasetContext.
type ExportOptions struct {
	// Seed and Scale record the campaign's provenance in the manifest
	// and checkpoint; a resume with different values is refused.
	Seed  int64
	Scale float64
	// Resume verifies the shards an interrupted export already wrote
	// (via the CHECKPOINT journal, or a previous MANIFEST if the
	// directory was complete) and regenerates only missing or corrupt
	// ones. Generation is deterministic, so the resumed directory is
	// bit-identical to an uninterrupted export.
	Resume bool
	// BeforeFile, if set, runs before each shard write; an error aborts
	// the export mid-campaign. The kill-and-resume tests use it to
	// simulate crashes at exact shard boundaries.
	BeforeFile func(name string) error
	// Metrics, when non-nil, counts export progress live:
	// store.shards_total (gauge; it grows drive by drive as the export
	// meets the campaign's drives), store.shards_written and
	// store.shards_reused.
	Metrics *obs.Registry
	// FS, when non-nil, routes every disk operation of the export
	// through it (fault injection via FaultFS); nil means the real
	// filesystem.
	FS FS
}

// ExportStats summarises one export.
type ExportStats struct {
	// Written counts shards generated by this run; Reused counts
	// verified shards kept from a previous interrupted or complete run.
	Written, Reused int
}

// ExportDatasetContext writes the campaign artifact directory: one
// channel trace CSV per (drive, network), a tests.csv summary, and —
// last — the MANIFEST that certifies completeness. Every file lands
// atomically and every completed shard is journalled, so the export can
// be killed at any instant and either resumed (Resume) or detected as
// partial (FsckFS). The context is observed between shards, so a
// cancelled export leaves a checkpointed directory a later Resume
// completes bit-identically. Drives the generator quarantined export no
// shards; the manifest records them instead.
func ExportDatasetContext(ctx context.Context, dir string, ds *dataset.Dataset, opts ExportOptions) (ExportStats, error) {
	w, err := openDatasetWriter(dir, opts)
	if err != nil {
		return ExportStats{}, err
	}
	defer w.cp.close()
	for di := range ds.Drives {
		if err := w.drive(ctx, ds, di); err != nil {
			return w.stats, err
		}
	}
	err = w.finish(ctx, ds)
	return w.stats, err
}

// StreamDatasetContext generates the campaign cfg describes and exports
// it into dir while it is generated: the generator hands over each
// drive as soon as it is finished (dataset.StreamContext), its trace
// shards are written and journalled, and the drive is released, so the
// campaign never has to fit in memory. The directory is byte-identical
// to ExportDatasetContext of dataset.GenerateContext(ctx, cfg), with
// the same resume, cancellation and quarantine behaviour; an export
// error stops generation and is returned. The returned dataset is the
// generator's summary: totals, quarantine ledger, drive routes and
// states, and the tests' scalar fields.
func StreamDatasetContext(ctx context.Context, dir string, cfg dataset.Config, opts ExportOptions) (*dataset.Dataset, ExportStats, error) {
	w, err := openDatasetWriter(dir, opts)
	if err != nil {
		return nil, ExportStats{}, err
	}
	defer w.cp.close()
	ds, err := dataset.StreamContext(ctx, cfg, func(ds *dataset.Dataset, di int, _ []dataset.Test) error {
		return w.drive(ctx, ds, di)
	})
	if err != nil {
		return nil, w.stats, err
	}
	err = w.finish(ctx, ds)
	return ds, w.stats, err
}

// datasetWriter writes one campaign's artifact directory drive by
// drive: each drive's shards in network order, then tests.csv, then
// the MANIFEST.
type datasetWriter struct {
	fsys FS
	dir  string
	opts ExportOptions
	cp   *checkpoint
	// done holds the shards a previous run left intact; they are reused
	// as they are.
	done     map[string]FileInfo
	manifest *Manifest
	stats    ExportStats

	planned         int
	total           *obs.Gauge
	written, reused *obs.Counter
}

// openDatasetWriter prepares dir for an export: it removes torn temp
// files, opens (or, under Resume, replays) the CHECKPOINT journal,
// retires any MANIFEST, and verifies every shard a previous run claims.
// The caller closes w.cp.
func openDatasetWriter(dir string, opts ExportOptions) (*datasetWriter, error) {
	fsys := orOS(opts.FS)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := removeTempFiles(fsys, dir); err != nil {
		return nil, fmt.Errorf("store: clean temp files: %w", err)
	}

	meta := JournalMeta{Schema: SchemaVersion, Tool: DatasetTool, Seed: opts.Seed, Scale: opts.Scale}
	claimed := make(map[string]FileInfo)
	if opts.Resume {
		// A directory with a MANIFEST was complete: its file list is as
		// good a journal as a checkpoint. It is removed (atomically
		// superseded at the end) so the directory reads as in-progress
		// while shards are being repaired.
		if m, err := ReadManifestFS(fsys, dir); err == nil {
			if m.Tool != meta.Tool || m.Seed != meta.Seed || m.Scale != meta.Scale {
				return nil, fmt.Errorf(
					"store: resume mismatch: %s holds tool=%s seed=%d scale=%g, asked to resume tool=%s seed=%d scale=%g",
					ManifestName, m.Tool, m.Seed, m.Scale, meta.Tool, meta.Seed, meta.Scale)
			}
			for name, fi := range m.Files {
				claimed[name] = fi
			}
		}
		// An absent or unreadable manifest is fine: the checkpoint
		// journal (if any) still names the reusable shards.
	}
	cp, journalled, err := openCheckpoint(fsys, dir, meta, opts.Resume)
	if err != nil {
		return nil, err
	}
	for name, fi := range journalled {
		claimed[name] = fi
	}
	if err := fsys.Remove(filepath.Join(dir, ManifestName)); err != nil && !os.IsNotExist(err) {
		cp.close()
		return nil, fmt.Errorf("store: %w", err)
	}

	// Verify every claimed shard against disk; only intact ones are
	// reused, anything missing / truncated / bit-flipped is regenerated.
	done := make(map[string]FileInfo, len(claimed))
	probe := &Manifest{Files: claimed}
	for name, fi := range claimed {
		if probe.VerifyFileFS(fsys, dir, name) == nil {
			done[name] = fi
		}
	}
	return &datasetWriter{
		fsys: fsys, dir: dir, opts: opts, cp: cp, done: done,
		manifest: NewManifest(DatasetTool, opts.Seed, opts.Scale),
		total:    opts.Metrics.Gauge("store.shards_total"),
		written:  opts.Metrics.Counter("store.shards_written"),
		reused:   opts.Metrics.Counter("store.shards_reused"),
	}, nil
}

// drive writes drive di's trace shards, one per measured network.
// Quarantined drives write none: their absence is declared by the
// manifest, not discovered by fsck.
func (w *datasetWriter) drive(ctx context.Context, ds *dataset.Dataset, di int) error {
	if ds.DriveQuarantined(di) {
		return nil
	}
	d := &ds.Drives[di]
	nets := ds.MeasuredNetworks()
	w.plan(len(nets))
	for _, n := range nets {
		recs := d.Observed[n]
		if err := w.shard(ctx, ShardName(di, d.Route, n), len(recs), func(out io.Writer) error {
			return trace.WriteRecordsCSV(out, n, recs)
		}); err != nil {
			return err
		}
	}
	return nil
}

// finish writes tests.csv from ds's tests, then the MANIFEST, and only
// then retires the journal.
func (w *datasetWriter) finish(ctx context.Context, ds *dataset.Dataset) error {
	w.plan(1)
	if err := w.shard(ctx, "tests.csv", len(ds.Tests), func(out io.Writer) error {
		return writeTests(out, ds)
	}); err != nil {
		return err
	}
	w.manifest.Campaign = campaignInfo(ds)
	if err := w.manifest.WriteFS(w.fsys, w.dir); err != nil {
		return err
	}
	if err := w.cp.close(); err != nil {
		return err
	}
	if err := w.fsys.Remove(filepath.Join(w.dir, CheckpointName)); err != nil {
		return fmt.Errorf("store: retire %s: %w", CheckpointName, err)
	}
	return syncDir(w.fsys, w.dir)
}

// plan counts n more shards into store.shards_total, which grows drive
// by drive as the export meets the campaign's drives.
func (w *datasetWriter) plan(n int) {
	w.planned += n
	w.total.Set(float64(w.planned))
}

// shard reuses the intact shard a previous run left under name, or
// writes it atomically, hashes it and journals it.
func (w *datasetWriter) shard(ctx context.Context, name string, rows int, write func(io.Writer) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if fi, ok := w.done[name]; ok {
		w.manifest.Add(name, fi)
		w.stats.Reused++
		w.reused.Inc()
		return nil
	}
	if w.opts.BeforeFile != nil {
		if err := w.opts.BeforeFile(name); err != nil {
			return err
		}
	}
	path := filepath.Join(w.dir, name)
	if err := WriteFileAtomicFS(w.fsys, path, write); err != nil {
		return err
	}
	sum, size, err := hashFile(w.fsys, path)
	if err != nil {
		return err
	}
	fi := FileInfo{SHA256: sum, Bytes: size, Rows: rows}
	if err := w.cp.record(name, fi); err != nil {
		return err
	}
	w.manifest.Add(name, fi)
	w.stats.Written++
	w.written.Inc()
	return nil
}

// campaignInfo snapshots the dataset totals the manifest carries for
// directory-scan analysis.
func campaignInfo(ds *dataset.Dataset) *CampaignInfo {
	states := make(map[string]bool)
	for i := range ds.Drives {
		states[ds.Drives[i].State] = true
	}
	nets := ds.MeasuredNetworks()
	ids := make([]string, len(nets))
	for i, n := range nets {
		ids[i] = n.String()
	}
	quarantined := make([]string, len(ds.Quarantined))
	for i, f := range ds.Quarantined {
		quarantined[i] = f.String()
	}
	return &CampaignInfo{
		Km: ds.TotalKm, TestMin: ds.TotalTestMin,
		Drives: len(ds.Drives), States: len(states), Networks: ids,
		Quarantined: quarantined,
	}
}

// ShardName is the canonical file name of one drive/network trace shard.
func ShardName(drive int, route string, n channel.NetworkID) string {
	return fmt.Sprintf("drive%03d_%s_%s.csv", drive, route, n)
}

// writeTests renders tests.csv (header defined by dataset.TestsCSVHeader).
func writeTests(w io.Writer, ds *dataset.Dataset) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(dataset.TestsCSVHeader); err != nil {
		return err
	}
	for i := range ds.Tests {
		if err := cw.Write(ds.Tests[i].CSVRecord()); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ExportFiguresFS writes rendered figure CSVs (name -> content) as an
// atomic, manifested artifact directory through fsys (nil means the
// real filesystem), so the figures tool's output is fsck-able like the
// dataset itself and the campaign's render stage shares the run's
// fault-injection seam with every other stage. Figure regeneration is
// cheap, so there is no checkpoint/resume here — just all-or-nothing
// files plus a trailing manifest.
func ExportFiguresFS(fsys FS, dir string, seed int64, scale float64, files map[string]string) error {
	fsys = orOS(fsys)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := removeTempFiles(fsys, dir); err != nil {
		return fmt.Errorf("store: clean temp files: %w", err)
	}
	if err := fsys.Remove(filepath.Join(dir, ManifestName)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	manifest := NewManifest("figures", seed, scale)
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !safeArtifactName(name) {
			return fmt.Errorf("store: unsafe artifact name %q", name)
		}
		content := files[name]
		path := filepath.Join(dir, name)
		if err := WriteFileAtomicFS(fsys, path, func(w io.Writer) error {
			_, err := io.WriteString(w, content)
			return err
		}); err != nil {
			return err
		}
		sum, size, err := hashFile(fsys, path)
		if err != nil {
			return err
		}
		manifest.Add(name, FileInfo{SHA256: sum, Bytes: size, Rows: csvRows(content)})
	}
	return manifest.WriteFS(fsys, dir)
}

// csvRows counts data rows (lines minus header) of a CSV string.
func csvRows(content string) int {
	n := 0
	for _, c := range content {
		if c == '\n' {
			n++
		}
	}
	if n > 0 {
		n--
	}
	return n
}
