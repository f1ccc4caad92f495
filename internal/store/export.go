package store

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

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

// drive writes drive di's trace shards, one per measured network, as
// one commit group. Quarantined drives write none: their absence is
// declared by the manifest, not discovered by fsck.
func (w *datasetWriter) drive(ctx context.Context, ds *dataset.Dataset, di int) error {
	if ds.DriveQuarantined(di) {
		return nil
	}
	d := &ds.Drives[di]
	nets := ds.MeasuredNetworks()
	w.plan(len(nets))
	group := make([]shardJob, len(nets))
	for i, n := range nets {
		recs := d.Observed[n]
		group[i] = shardJob{name: ShardName(di, d.Route, n), rows: len(recs), write: func(out io.Writer) error {
			return trace.WriteRecordsCSV(out, n, recs)
		}}
	}
	return w.commit(ctx, group)
}

// finish writes tests.csv from ds's tests, then the MANIFEST, and only
// then retires the journal.
func (w *datasetWriter) finish(ctx context.Context, ds *dataset.Dataset) error {
	w.plan(1)
	if err := w.commit(ctx, []shardJob{{name: "tests.csv", rows: len(ds.Tests), write: func(out io.Writer) error {
		return writeTests(out, ds)
	}}}); err != nil {
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

// shardJob is one shard of a commit group: what to write, and what
// writing it gave.
type shardJob struct {
	name  string
	rows  int
	write func(io.Writer) error

	reused bool
	fi     FileInfo
	err    error
}

// admit readies job for its commit group: it is reused when a previous
// run left it intact, and otherwise must pass BeforeFile.
func (w *datasetWriter) admit(ctx context.Context, job *shardJob) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if fi, ok := w.done[job.name]; ok {
		job.reused, job.fi = true, fi
		return nil
	}
	if w.opts.BeforeFile != nil {
		return w.opts.BeforeFile(job.name)
	}
	return nil
}

// commit makes a group of shards durable together. The shards are
// admitted in order, and the first refusal (a cancelled context or a
// BeforeFile error) ends the group there. The shards to write are
// written concurrently (writeShards); one directory fsync then covers
// every rename, and one CHECKPOINT batch journals every shard that
// landed. The manifest and the stats take the group in order. A write
// error, or else the refusal, is returned only after the shards that
// did land are committed, so a resume reuses exactly them.
func (w *datasetWriter) commit(ctx context.Context, group []shardJob) error {
	var stop error
	for i := range group {
		if stop = w.admit(ctx, &group[i]); stop != nil {
			group = group[:i]
			break
		}
	}
	writeShards(w.fsys, w.dir, group)
	var firstErr error
	entries := make([]checkpointEntry, 0, len(group))
	for i := range group {
		job := &group[i]
		if job.err != nil {
			if firstErr == nil {
				firstErr = job.err
			}
		} else if !job.reused {
			entries = append(entries, checkpointEntry{Name: job.name, FileInfo: job.fi})
		}
	}
	if len(entries) > 0 {
		if err := syncDir(w.fsys, w.dir); err != nil {
			return err
		}
		if err := w.cp.record(entries...); err != nil {
			return err
		}
	}
	for i := range group {
		switch job := &group[i]; {
		case job.reused:
			w.manifest.Add(job.name, job.fi)
			w.stats.Reused++
			w.reused.Inc()
		case job.err == nil:
			w.manifest.Add(job.name, job.fi)
			w.stats.Written++
			w.written.Inc()
		}
	}
	if firstErr != nil {
		return firstErr
	}
	return stop
}

// writeShards writes every job that is not reused into dir, all at
// once: each goes to a fsynced temp file renamed into place
// (writeFileRenamed), and is then re-read for its hash. The renames are
// durable only after the caller's directory fsync.
func writeShards(fsys FS, dir string, jobs []shardJob) {
	var wg sync.WaitGroup
	for i := range jobs {
		if job := &jobs[i]; !job.reused {
			wg.Add(1)
			go func() {
				defer wg.Done()
				job.fi, job.err = writeShard(fsys, dir, job)
			}()
		}
	}
	wg.Wait()
}

// writeShard writes job's file into dir and hashes what landed.
func writeShard(fsys FS, dir string, job *shardJob) (FileInfo, error) {
	path := filepath.Join(dir, job.name)
	if err := writeFileRenamed(fsys, path, job.write); err != nil {
		return FileInfo{}, err
	}
	sum, size, err := hashFile(fsys, path)
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{SHA256: sum, Bytes: size, Rows: job.rows}, nil
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
	jobs := make([]shardJob, len(names))
	for i, name := range names {
		if !safeArtifactName(name) {
			return fmt.Errorf("store: unsafe artifact name %q", name)
		}
		content := files[name]
		jobs[i] = shardJob{name: name, rows: csvRows(content), write: func(w io.Writer) error {
			_, err := io.WriteString(w, content)
			return err
		}}
	}
	// The figures are written like a drive's shards: all at once, then
	// one directory fsync makes every rename durable before the
	// MANIFEST certifies them.
	writeShards(fsys, dir, jobs)
	for _, job := range jobs {
		if job.err != nil {
			return job.err
		}
		manifest.Add(job.name, job.fi)
	}
	if len(jobs) > 0 {
		if err := syncDir(fsys, dir); err != nil {
			return err
		}
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
