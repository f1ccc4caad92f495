package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"satcell/internal/dataset"
	"satcell/internal/obs"
)

// fsEvent is one durability-relevant call a recordFS saw: a write, a
// file or directory Sync, or a rename. name is the base name of the
// file the call lands in (a temp file is named by its destination);
// data is a write's bytes, kept for the CHECKPOINT journal only.
type fsEvent struct {
	op   string // "write", "sync", "syncdir" or "rename"
	name string
	data []byte
}

// recordFS logs the writes, Syncs and renames that pass through it, in
// the order they happen.
type recordFS struct {
	FS
	mu     sync.Mutex
	events []fsEvent
}

func newRecordFS() *recordFS { return &recordFS{FS: OS()} }

func (r *recordFS) log(e fsEvent) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

func (r *recordFS) wrap(f File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return &recordFile{File: f, fs: r}, nil
}

func (r *recordFS) Open(name string) (File, error) { return r.wrap(r.FS.Open(name)) }

func (r *recordFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return r.wrap(r.FS.OpenFile(name, flag, perm))
}

func (r *recordFS) CreateTemp(dir, pattern string) (File, error) {
	return r.wrap(r.FS.CreateTemp(dir, pattern))
}

func (r *recordFS) Rename(oldpath, newpath string) error {
	err := r.FS.Rename(oldpath, newpath)
	if err == nil {
		r.log(fsEvent{op: "rename", name: filepath.Base(newpath)})
	}
	return err
}

// take returns the events so far and forgets them.
func (r *recordFS) take() []fsEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	events := r.events
	r.events = nil
	return events
}

type recordFile struct {
	File
	fs *recordFS
}

func (f *recordFile) base() string { return tempTarget(filepath.Base(f.Name())) }

func (f *recordFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	e := fsEvent{op: "write", name: f.base()}
	if e.name == CheckpointName {
		e.data = append([]byte(nil), p[:n]...)
	}
	f.fs.log(e)
	return n, err
}

func (f *recordFile) Sync() error {
	op := "sync"
	if st, err := os.Stat(f.Name()); err == nil && st.IsDir() {
		op = "syncdir"
	}
	err := f.File.Sync()
	f.fs.log(fsEvent{op: op, name: f.base()})
	return err
}

// checkpointNames parses one CHECKPOINT write into the shard names its
// lines journal.
func checkpointNames(t *testing.T, data []byte) []string {
	t.Helper()
	var names []string
	for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		var e checkpointEntry
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("CHECKPOINT line %q: %v", line, err)
		}
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return names
}

// commitGroups walks an export's recorded events and returns its commit
// groups in order, each the sorted names one CHECKPOINT batch journals,
// failing t unless every group keeps the commit order: each shard's
// Sync before its rename, every rename of the group before exactly one
// directory Sync, and that Sync just before one CHECKPOINT write whose
// lines name exactly the group's shards, fsynced before anything else
// happens. rest is what follows the last group.
func commitGroups(t *testing.T, events []fsEvent) (groups [][]string, rest []fsEvent) {
	t.Helper()
	// The first CHECKPOINT write and Sync are its meta line.
	if len(events) < 2 || events[0].op != "write" || events[0].name != CheckpointName ||
		events[1].op != "sync" || events[1].name != CheckpointName {
		t.Fatalf("export does not open with the durable CHECKPOINT meta line: %+v", events[:min(2, len(events))])
	}
	synced := map[string]bool{}
	var renamed []string
	i := 2
	for ; i < len(events); i++ {
		e := events[i]
		switch {
		case e.op == "write" && e.name != CheckpointName:
			// Shard bytes; the shard's Sync must follow.
		case e.op == "sync" && e.name != CheckpointName:
			synced[e.name] = true
		case e.op == "rename":
			if !synced[e.name] {
				t.Fatalf("event %d: %s renamed before its Sync", i, e.name)
			}
			if e.name == ManifestName {
				return groups, events[i-1:]
			}
			renamed = append(renamed, e.name)
		case e.op == "syncdir":
			if len(renamed) == 0 || len(renamed) != len(synced) {
				t.Fatalf("event %d: directory Sync after %d renames of %d synced shards", i, len(renamed), len(synced))
			}
			if i+2 >= len(events) || events[i+1].op != "write" || events[i+1].name != CheckpointName ||
				events[i+2].op != "sync" || events[i+2].name != CheckpointName {
				t.Fatalf("event %d: directory Sync not followed by one fsynced CHECKPOINT write", i)
			}
			sort.Strings(renamed)
			if got := checkpointNames(t, events[i+1].data); strings.Join(got, ",") != strings.Join(renamed, ",") {
				t.Fatalf("CHECKPOINT batch names %v, the group renamed %v", got, renamed)
			}
			groups = append(groups, renamed)
			synced, renamed = map[string]bool{}, nil
			i += 2
		default:
			t.Fatalf("event %d: unexpected %s of %s", i, e.op, e.name)
		}
	}
	if len(synced) != 0 {
		t.Fatalf("export ended with %d shards synced but not committed", len(synced))
	}
	return groups, nil
}

// TestDriveGroupCommitOrder pins the export's group commit: every drive
// is one commit group (its shards synced, renamed, one directory Sync,
// one CHECKPOINT batch naming exactly them), drives commit in order,
// and tests.csv and then the MANIFEST come last, each with the full
// per-file protocol. Killed mid-drive, the export commits the shards
// admitted before the kill as one group and writes nothing after it.
func TestDriveGroupCommitOrder(t *testing.T) {
	ds := testDataset()
	nets := len(ds.MeasuredNetworks())

	t.Run("complete", func(t *testing.T) {
		rfs := newRecordFS()
		opts := exportOpts()
		opts.FS = rfs
		if _, err := ExportDatasetContext(context.Background(), t.TempDir(), ds, opts); err != nil {
			t.Fatal(err)
		}
		groups, rest := commitGroups(t, rfs.take())
		if len(groups) != len(ds.Drives)+1 {
			t.Fatalf("%d commit groups, want one per drive (%d) and tests.csv", len(groups), len(ds.Drives))
		}
		for di, g := range groups[:len(ds.Drives)] {
			prefix := fmt.Sprintf("drive%03d_", di)
			if len(g) != nets {
				t.Fatalf("drive %d commits %d shards, want %d", di, len(g), nets)
			}
			for _, name := range g {
				if !strings.HasPrefix(name, prefix) {
					t.Fatalf("drive %d's group holds %s", di, name)
				}
			}
		}
		if last := groups[len(groups)-1]; len(last) != 1 || last[0] != "tests.csv" {
			t.Fatalf("last group %v, want tests.csv alone", last)
		}
		// The MANIFEST: its Sync, rename and directory Sync; then the
		// CHECKPOINT's retirement is made durable by one more.
		var ops []string
		for _, e := range rest {
			if e.op != "write" {
				ops = append(ops, e.op+" "+e.name)
			}
		}
		dir := ops[len(ops)-1][len("syncdir "):]
		want := []string{"sync " + ManifestName, "rename " + ManifestName, "syncdir " + dir, "syncdir " + dir}
		if strings.Join(ops, "; ") != strings.Join(want, "; ") {
			t.Fatalf("export ends with %q, want %q", ops, want)
		}
	})

	t.Run("killed mid-drive", func(t *testing.T) {
		killAt := nets + 2 // drive 1's third shard
		rfs := newRecordFS()
		opts := exportOpts()
		opts.FS = rfs
		n := 0
		opts.BeforeFile = func(name string) error {
			if n == killAt {
				return errKilled
			}
			n++
			return nil
		}
		if _, err := ExportDatasetContext(context.Background(), t.TempDir(), ds, opts); !errors.Is(err, errKilled) {
			t.Fatalf("interrupted export: err=%v", err)
		}
		groups, rest := commitGroups(t, rfs.take())
		if len(groups) != 2 || len(groups[0]) != nets || len(groups[1]) != 2 || rest != nil {
			t.Fatalf("killed export committed %v then %d events, want drive 0's %d shards and drive 1's first 2",
				groups, len(rest), nets)
		}
	})
}

// TestJournalTelemetrySyncs pins which TELEMETRY records the flight
// recorder makes durable at once: the run marker, campaign, stage and
// attempt spans, metrics samples, post-mortem pointers and any unit or
// shard span that does not end ok are fsynced before the recorder
// returns; a unit or shard span's start and ok end are written at once
// but left for the next fsynced record, or Close, to cover.
func TestJournalTelemetrySyncs(t *testing.T) {
	rfs := newRecordFS()
	path := filepath.Join(t.TempDir(), "TELEMETRY")
	j, _, err := OpenJournal(rfs, path, JournalMeta{Schema: SchemaVersion, Tool: "test", Seed: 1, Scale: 0.1}, false)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewFlightRecorder(j, 1)
	camp := rec.Begin(obs.SpanCampaign, "campaign")
	stage := camp.Child(obs.SpanStage, "generate")
	attempt := stage.Child(obs.SpanAttempt, "generate#1")
	u1 := attempt.Child(obs.SpanUnit, "w00/drive000:RM")
	u1.End(obs.SpanOK, "")
	sh := attempt.Child(obs.SpanShard, "w01/drive000_RM")
	sh.End(obs.SpanOK, "")
	rec.RecordMetrics(map[string]any{"x": 1})
	u2 := attempt.Child(obs.SpanUnit, "w00/drive001:RM")
	u2.End(obs.SpanQuarantined, "drive quarantined")
	sh2 := attempt.Child(obs.SpanShard, "w01/drive001_RM")
	sh2.End(obs.SpanCancelled, "context canceled")
	u3 := attempt.Child(obs.SpanUnit, "w00/drive002:RM")
	u3.End(obs.SpanOK, "")
	rec.RecordPostmortem("generate", 1, "postmortem/x", "stall")
	attempt.End(obs.SpanOK, "")
	u4 := stage.Child(obs.SpanUnit, "w00/drive003:RM")
	u4.End(obs.SpanOK, "")
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}

	// Each write is one record; "S" marks one fsynced at once, "-" one
	// left unsynced.
	var got strings.Builder
	events := rfs.take()
	for i, e := range events {
		if e.op == "write" {
			if i+1 < len(events) && events[i+1].op == "sync" {
				got.WriteByte('S')
			} else {
				got.WriteByte('-')
			}
		}
	}
	// meta, run, campaign, stage, attempt, unit start/end, shard
	// start/end, metrics, unit start + quarantined end, shard start +
	// cancelled end, unit start/end, post-mortem, attempt end, then a
	// unit's start and end that only Close covers.
	const want = "SSSSS----S-S-S--SS--"
	if got.String() != want {
		t.Fatalf("durability by record %q, want %q", got.String(), want)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if events = rfs.take(); len(events) != 1 || events[0].op != "sync" {
		t.Fatalf("Close made %+v, want one Sync covering the last unit's records", events)
	}
	// Every record was written at once, so the journal replays whole.
	_, entries, err := ReplayJournal(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	log, err := obs.ReplayTelemetry(entries)
	if err != nil {
		t.Fatal(err)
	}
	if log.Spans() != 9 || log.Open() != 2 {
		t.Fatalf("replayed %d spans, %d open; want 9 and 2 (campaign and stage)", log.Spans(), log.Open())
	}
}

// BenchmarkStreamDataset times StreamDatasetContext of the seed-42,
// scale-0.05 campaign into one directory: generation, export and every
// fsync. fsyncs/op counts the file and directory Syncs of one export.
func BenchmarkStreamDataset(b *testing.B) {
	rfs := newRecordFS()
	cfg := dataset.Config{Seed: 42, Scale: 0.05}
	opts := ExportOptions{Seed: 42, Scale: 0.05, FS: rfs}
	dir := b.TempDir()
	syncs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := StreamDatasetContext(context.Background(), dir, cfg, opts); err != nil {
			b.Fatal(err)
		}
		for _, e := range rfs.take() {
			if e.op == "sync" || e.op == "syncdir" {
				syncs++
			}
		}
	}
	b.ReportMetric(float64(syncs)/float64(b.N), "fsyncs/op")
}
