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

// ExportOptions configures ExportDatasetContext.
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
	// store.shards_total (gauge), store.shards_written and
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

// shard is one planned artifact file of a campaign export.
type shard struct {
	name  string
	rows  int
	write func(w io.Writer) error
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
	var stats ExportStats
	fsys := orOS(opts.FS)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return stats, fmt.Errorf("store: %w", err)
	}
	if err := removeTempFiles(fsys, dir); err != nil {
		return stats, fmt.Errorf("store: clean temp files: %w", err)
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
				return stats, fmt.Errorf(
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
		return stats, err
	}
	defer cp.close()
	for name, fi := range journalled {
		claimed[name] = fi
	}
	if err := fsys.Remove(filepath.Join(dir, ManifestName)); err != nil && !os.IsNotExist(err) {
		return stats, fmt.Errorf("store: %w", err)
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

	manifest := NewManifest(DatasetTool, opts.Seed, opts.Scale)
	manifest.Campaign = campaignInfo(ds)
	shards := planShards(ds)
	opts.Metrics.Gauge("store.shards_total").Set(float64(len(shards)))
	written := opts.Metrics.Counter("store.shards_written")
	reused := opts.Metrics.Counter("store.shards_reused")
	for _, sh := range shards {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		if fi, ok := done[sh.name]; ok {
			manifest.Add(sh.name, fi)
			stats.Reused++
			reused.Inc()
			continue
		}
		if opts.BeforeFile != nil {
			if err := opts.BeforeFile(sh.name); err != nil {
				return stats, err
			}
		}
		path := filepath.Join(dir, sh.name)
		if err := WriteFileAtomicFS(fsys, path, sh.write); err != nil {
			return stats, err
		}
		sum, size, err := hashFile(fsys, path)
		if err != nil {
			return stats, err
		}
		fi := FileInfo{SHA256: sum, Bytes: size, Rows: sh.rows}
		if err := cp.record(sh.name, fi); err != nil {
			return stats, err
		}
		manifest.Add(sh.name, fi)
		stats.Written++
		written.Inc()
	}

	// The manifest lands last; only then is the journal retired.
	if err := manifest.WriteFS(fsys, dir); err != nil {
		return stats, err
	}
	if err := cp.close(); err != nil {
		return stats, err
	}
	if err := fsys.Remove(filepath.Join(dir, CheckpointName)); err != nil {
		return stats, fmt.Errorf("store: retire %s: %w", CheckpointName, err)
	}
	return stats, syncDir(fsys, dir)
}

// planShards lists the campaign's artifact files in a deterministic
// order: per-drive per-network traces, then tests.csv. Quarantined
// drives plan no shards — their absence is declared by the manifest,
// not discovered by fsck.
func planShards(ds *dataset.Dataset) []shard {
	nets := ds.MeasuredNetworks()
	shards := make([]shard, 0, len(ds.Drives)*len(nets)+1)
	for di := range ds.Drives {
		if ds.DriveQuarantined(di) {
			continue
		}
		d := &ds.Drives[di]
		for _, n := range nets {
			n, recs := n, d.Observed[n]
			shards = append(shards, shard{
				name:  ShardName(di, d.Route, n),
				rows:  len(recs),
				write: func(w io.Writer) error { return trace.WriteRecordsCSV(w, n, recs) },
			})
		}
	}
	shards = append(shards, shard{
		name:  "tests.csv",
		rows:  len(ds.Tests),
		write: func(w io.Writer) error { return writeTests(w, ds) },
	})
	return shards
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
