package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"satcell/internal/dataset"
	"satcell/internal/testutil"
)

// errKilled simulates the process dying at a shard boundary.
var errKilled = errors.New("simulated kill")

// exportClean runs an uninterrupted export and returns the directory.
func exportClean(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	stats, err := ExportDatasetContext(context.Background(), dir, testDataset(), exportOpts())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reused != 0 || stats.Written == 0 {
		t.Fatalf("clean export stats %+v", stats)
	}
	return dir
}

func TestExportProducesVerifiableDirectory(t *testing.T) {
	dir := exportClean(t)
	rep, err := FsckFS(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fresh export fails fsck:\n%s", rep)
	}
	m, err := ReadManifestFS(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	ds := testDataset()
	wantFiles := len(ds.Drives)*5 + 1
	if len(m.Files) != wantFiles {
		t.Fatalf("manifest lists %d files, want %d", len(m.Files), wantFiles)
	}
	if fi := m.Files["tests.csv"]; fi.Rows != len(ds.Tests) {
		t.Fatalf("tests.csv manifest rows %d, want %d", fi.Rows, len(ds.Tests))
	}
	if _, err := os.Stat(filepath.Join(dir, CheckpointName)); !os.IsNotExist(err) {
		t.Fatal("checkpoint journal should be retired after a complete export")
	}
}

// TestExportDeterministic pins that two exports of the same campaign
// are bit-identical at the directory level — the property resume
// depends on.
func TestExportDeterministic(t *testing.T) {
	a := exportClean(t)
	b := exportClean(t)
	da, err := DigestDir(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := DigestDir(b)
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Fatalf("same campaign exported twice differs: %s vs %s", da, db)
	}
}

// TestKillAndResumeBitIdentical is the acceptance gate: interrupting the
// export after N shards and resuming must produce a directory whose
// golden digest is bit-identical to an uninterrupted run — at every
// possible interruption point class (first shard, mid-campaign, just
// before tests.csv).
func TestKillAndResumeBitIdentical(t *testing.T) {
	golden, err := DigestDir(exportClean(t))
	if err != nil {
		t.Fatal(err)
	}
	ds := testDataset()
	shardCount := len(ds.Drives)*5 + 1
	for _, killAt := range []int{0, 1, shardCount / 2, shardCount - 1} {
		killAt := killAt
		t.Run(fmt.Sprintf("killAt=%d", killAt), func(t *testing.T) {
			dir := t.TempDir()
			n := 0
			opts := exportOpts()
			opts.BeforeFile = func(name string) error {
				if n == killAt {
					return fmt.Errorf("%w before %s", errKilled, name)
				}
				n++
				return nil
			}
			if _, err := ExportDatasetContext(context.Background(), dir, ds, opts); !errors.Is(err, errKilled) {
				t.Fatalf("interrupted export: err=%v", err)
			}
			// The partial directory must be detectable as such.
			if _, err := ReadManifestFS(nil, dir); !os.IsNotExist(err) {
				t.Fatalf("partial export has a manifest (err=%v)", err)
			}
			rep, err := FsckFS(nil, dir)
			if err != nil {
				t.Fatal(err)
			}
			if rep.OK() {
				t.Fatal("fsck passed a partial campaign")
			}

			stats, err := ExportDatasetContext(context.Background(), dir, ds, ExportOptions{Seed: 7, Scale: 0.02, Resume: true})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if stats.Reused != killAt || stats.Reused+stats.Written != shardCount {
				t.Fatalf("resume stats %+v, want %d reused of %d", stats, killAt, shardCount)
			}
			got, err := DigestDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got != golden {
				t.Fatalf("resumed dataset digest %s != uninterrupted %s", got, golden)
			}
			rep, err = FsckFS(nil, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("resumed dataset fails fsck:\n%s", rep)
			}
		})
	}
}

// TestStreamDatasetKillAndResume is the streamed export's acceptance
// gate. An uninterrupted StreamDatasetContext must write the directory
// ExportDatasetContext writes for the generated dataset. Killed at each
// BeforeFile call in turn, it must return the kill, leave no generation
// goroutine behind and no MANIFEST, and a streamed resume must reuse
// every shard written before the kill and converge on the same bytes.
func TestStreamDatasetKillAndResume(t *testing.T) {
	golden, err := DigestDir(exportClean(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := dataset.Config{Seed: 7, Scale: 0.02, Workers: 2}
	want := testDataset()
	shardCount := len(want.Drives)*5 + 1

	dir := t.TempDir()
	ds, stats, err := StreamDatasetContext(ctx, dir, cfg, exportOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := DigestDir(dir); got != golden {
		t.Fatalf("streamed export digest %s != ExportDatasetContext's %s", got, golden)
	}
	if stats.Written != shardCount || len(ds.Drives) != len(want.Drives) || len(ds.Tests) != len(want.Tests) {
		t.Fatalf("streamed export wrote %d shards for %d drives and %d tests, want %d, %d and %d",
			stats.Written, len(ds.Drives), len(ds.Tests), shardCount, len(want.Drives), len(want.Tests))
	}

	for killAt := 0; killAt < shardCount; killAt++ {
		t.Run(fmt.Sprintf("killAt=%d", killAt), func(t *testing.T) {
			dir := t.TempDir()
			baseline := testutil.GoroutineBaseline()
			n := 0
			opts := exportOpts()
			opts.BeforeFile = func(name string) error {
				if n == killAt {
					return fmt.Errorf("%w before %s", errKilled, name)
				}
				n++
				return nil
			}
			if _, _, err := StreamDatasetContext(ctx, dir, cfg, opts); !errors.Is(err, errKilled) {
				t.Fatalf("interrupted export: err=%v", err)
			}
			testutil.SettleGoroutines(t, baseline)
			if _, err := ReadManifestFS(nil, dir); !os.IsNotExist(err) {
				t.Fatalf("partial export has a manifest (err=%v)", err)
			}
			_, stats, err := StreamDatasetContext(ctx, dir, cfg, ExportOptions{Seed: 7, Scale: 0.02, Resume: true})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if stats.Reused != killAt || stats.Reused+stats.Written != shardCount {
				t.Fatalf("resume stats %+v, want %d reused of %d", stats, killAt, shardCount)
			}
			if got, _ := DigestDir(dir); got != golden {
				t.Fatalf("resumed dataset digest %s != uninterrupted %s", got, golden)
			}
		})
	}
}

// TestResumeOfCompleteExportIsNoop re-running with -resume over a
// finished directory must rewrite nothing.
func TestResumeOfCompleteExportIsNoop(t *testing.T) {
	dir := exportClean(t)
	before, _ := DigestDir(dir)
	opts := exportOpts()
	opts.Resume = true
	opts.BeforeFile = func(name string) error {
		return fmt.Errorf("resume of a complete export tried to rewrite %s", name)
	}
	stats, err := ExportDatasetContext(context.Background(), dir, testDataset(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Written != 0 || stats.Reused == 0 {
		t.Fatalf("noop resume stats %+v", stats)
	}
	after, _ := DigestDir(dir)
	if after != before {
		t.Fatal("noop resume changed the directory")
	}
}

func TestResumeRefusesMismatchedCampaign(t *testing.T) {
	dir := t.TempDir()
	opts := exportOpts()
	n := 0
	opts.BeforeFile = func(string) error {
		if n == 2 {
			return errKilled
		}
		n++
		return nil
	}
	if _, err := ExportDatasetContext(context.Background(), dir, testDataset(), opts); !errors.Is(err, errKilled) {
		t.Fatal("setup interrupt failed")
	}
	_, err := ExportDatasetContext(context.Background(), dir, testDataset(), ExportOptions{Seed: 8, Scale: 0.02, Resume: true})
	if err == nil {
		t.Fatal("resume with a different seed must be refused")
	}
}

func TestExportFiguresManifested(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"fig3a.csv": "series,x,y\nMOB-TCP,1,0.5\nMOB-TCP,2,0.9\n",
		"fig9.csv":  "series,x,y\nRM,0,0.1\n",
	}
	if err := ExportFiguresFS(nil, dir, 7, 0.25, files); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifestFS(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tool != "figures" || len(m.Files) != 2 {
		t.Fatalf("figures manifest %+v", m)
	}
	if m.Files["fig3a.csv"].Rows != 2 || m.Files["fig9.csv"].Rows != 1 {
		t.Fatalf("figure row counts wrong: %+v", m.Files)
	}
	rep, err := FsckFS(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("figures dir fails fsck:\n%s", rep)
	}
}

// benchDataset is the campaign BenchmarkExportDataset writes: seed 42
// at scale 0.25, generated once.
var benchDataset = sync.OnceValue(func() *dataset.Dataset {
	return dataset.Generate(dataset.Config{Seed: 42, Scale: 0.25})
})

// BenchmarkExportDataset times ExportDatasetContext of the seed-42,
// scale-0.25 campaign into one directory, fsyncs included: the store's
// export probe. Run it with -benchmem; rows/s counts trace rows.
func BenchmarkExportDataset(b *testing.B) {
	ds := benchDataset()
	rows := len(ds.Tests)
	for i := range ds.Drives {
		for _, recs := range ds.Drives[i].Observed {
			rows += len(recs)
		}
	}
	dir := b.TempDir()
	opts := ExportOptions{Seed: 42, Scale: 0.25}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExportDatasetContext(context.Background(), dir, ds, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkFsck times FsckFS over the seed-42, scale-0.25 campaign
// exported once outside the timer: the store's read probe, one sha256
// pass and one scan of every file. Run it with -benchmem; rows/s counts
// the rows fsck checks.
func BenchmarkFsck(b *testing.B) {
	dir := b.TempDir()
	if _, err := ExportDatasetContext(context.Background(), dir, benchDataset(), ExportOptions{Seed: 42, Scale: 0.25}); err != nil {
		b.Fatal(err)
	}
	rows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := FsckFS(nil, dir)
		if err != nil || !rep.OK() {
			b.Fatalf("fsck: %v\n%v", err, rep)
		}
		rows += rep.RowsChecked
	}
	b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
}
