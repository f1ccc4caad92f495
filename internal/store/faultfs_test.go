package store

import (
	"context"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"satcell/internal/faults"
)

func writeTestFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func faultSched(t *testing.T, spec string) faults.IOSchedule {
	t.Helper()
	s, err := faults.ParseIOSpec(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFaultFSReadErr(t *testing.T) {
	dir := t.TempDir()
	writeTestFile(t, dir, "data.csv", "hello")
	fsys := NewFaultFS(nil, faultSched(t, "read-err:data.csv:x1"))
	f, err := fsys.Open(filepath.Join(dir, "data.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 16)
	_, err = f.Read(buf)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("first read: %v, want ErrInjected", err)
	}
	var pe *fs.PathError
	if !errors.As(err, &pe) {
		t.Fatalf("injected read error is %T, not *fs.PathError (streaming retry classifies on that)", err)
	}
	// x1 is transient: the next read (a retry reopening would also do)
	// succeeds.
	n, err := f.Read(buf)
	if err != nil && err != io.EOF {
		t.Fatalf("second read: %v", err)
	}
	if string(buf[:n]) != "hello" {
		t.Errorf("second read got %q", buf[:n])
	}
	if got := fsys.Stats().ReadErrs; got != 1 {
		t.Errorf("ReadErrs = %d, want 1", got)
	}
}

func TestFaultFSShortReadThenEOF(t *testing.T) {
	dir := t.TempDir()
	writeTestFile(t, dir, "data.csv", "0123456789")
	fsys := NewFaultFS(nil, faultSched(t, "short-read:data.csv:x1"))
	f, err := fsys.Open(filepath.Join(dir, "data.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) >= 10 {
		t.Fatalf("short read returned all %d bytes", len(b))
	}
	if string(b) != "01234"[:len(b)] {
		t.Errorf("short read returned %q, not a prefix", b)
	}
}

func TestFaultFSBitFlip(t *testing.T) {
	dir := t.TempDir()
	const content = "the quick brown fox"
	writeTestFile(t, dir, "data.csv", content)
	fsys := NewFaultFS(nil, faultSched(t, "bitflip:data.csv:x1"))
	f, err := fsys.Open(filepath.Join(dir, "data.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) == content {
		t.Fatal("bit flip left the content intact")
	}
	diff := 0
	for i := range b {
		if b[i] != content[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("%d bytes differ, want exactly 1", diff)
	}
}

func TestFaultFSWriteErrENOSPC(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFaultFS(nil, faultSched(t, "enospc:out.csv"))
	err := WriteFileAtomicFS(fsys, filepath.Join(dir, "out.csv"), func(w io.Writer) error {
		_, err := io.WriteString(w, strings.Repeat("x", 1<<16))
		return err
	})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("atomic write: %v, want ErrInjected", err)
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("atomic write: %v, want ENOSPC in the chain", err)
	}
	// The atomic writer must have cleaned up: no destination, no temp.
	entries, err2 := os.ReadDir(dir)
	if err2 != nil {
		t.Fatal(err2)
	}
	for _, e := range entries {
		t.Errorf("leftover file %q after failed atomic write", e.Name())
	}
}

func TestFaultFSShortWrite(t *testing.T) {
	dir := t.TempDir()
	writeTestFile(t, dir, "out.csv", "")
	fsys := NewFaultFS(nil, faultSched(t, "short-write:out.csv:x1"))
	f, err := fsys.OpenFile(filepath.Join(dir, "out.csv"), os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("0123456789"))
	f.Close()
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("short write: n=%d err=%v, want ENOSPC", n, err)
	}
	if n != 5 {
		t.Errorf("short write wrote %d bytes, want 5", n)
	}
	b, err := os.ReadFile(filepath.Join(dir, "out.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "01234" {
		t.Errorf("on-disk content %q, want the first half", b)
	}
}

func TestFaultFSTornRename(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFaultFS(nil, faultSched(t, "torn-rename:out.csv:x1"))
	content := strings.Repeat("y", 100)
	err := WriteFileAtomicFS(fsys, filepath.Join(dir, "out.csv"), func(w io.Writer) error {
		_, err := io.WriteString(w, content)
		return err
	})
	// The rename itself succeeds: a torn rename is silent at write time.
	if err != nil {
		t.Fatalf("torn rename surfaced at write time: %v", err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "out.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 50 {
		t.Errorf("torn file is %d bytes, want 50 (half of %d)", len(b), len(content))
	}
}

func TestFaultFSStall(t *testing.T) {
	dir := t.TempDir()
	writeTestFile(t, dir, "data.csv", "z")
	fsys := NewFaultFS(nil, faultSched(t, "stall:data.csv:x1:+50ms"))
	f, err := fsys.Open(filepath.Join(dir, "data.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	start := time.Now()
	if _, err := io.ReadAll(f); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Errorf("stalled read took %v, want >= 50ms", d)
	}
	if got := fsys.Stats().Stalls; got != 1 {
		t.Errorf("Stalls = %d, want 1", got)
	}
}

// TestFaultFSTempTargetMatching locks the atomic-write ergonomics: a
// write rule scripted against the destination name fires on the temp
// file the atomic writer actually streams into.
func TestFaultFSTempTargetMatching(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFaultFS(nil, faultSched(t, "enospc:tests.csv:x1"))
	err := WriteFileAtomicFS(fsys, filepath.Join(dir, "tests.csv"), func(w io.Writer) error {
		_, err := io.WriteString(w, strings.Repeat("x", 1<<16))
		return err
	})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("write rule on destination name did not fire through the temp file: %v", err)
	}
	// Unrelated destinations stay healthy.
	if err := WriteFileAtomicFS(fsys, filepath.Join(dir, "other.csv"), func(w io.Writer) error {
		_, err := io.WriteString(w, "fine")
		return err
	}); err != nil {
		t.Fatalf("unrelated write failed: %v", err)
	}
}

func TestTempTarget(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{tmpPrefix + "tests.csv-12345", "tests.csv"},
		{tmpPrefix + "drive000_I5_ATT.csv-98", "drive000_I5_ATT.csv"},
		{"tests.csv", "tests.csv"},
	} {
		if got := tempTarget(tc.in); got != tc.want {
			t.Errorf("tempTarget(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestExportDatasetSurvivesTransientWriteFault drives a full export
// through a FaultFS whose first shard write fails: the export surfaces
// the error, and a clean re-run (same FS, fault exhausted) produces a
// complete, verifiable directory.
func TestExportDatasetSurvivesTransientWriteFault(t *testing.T) {
	ds := testDataset()
	dir := t.TempDir()
	fsys := NewFaultFS(nil, faultSched(t, "enospc:tests.csv:x1"))
	opts := exportOpts()
	opts.FS = fsys
	_, err := ExportDatasetContext(context.Background(), dir, ds, opts)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("export with scripted ENOSPC: %v, want ErrInjected", err)
	}
	opts.Resume = true
	if _, err := ExportDatasetContext(context.Background(), dir, ds, opts); err != nil {
		t.Fatalf("resumed export after fault: %v", err)
	}
	rep, err := FsckFS(nil, dir)
	if err != nil {
		t.Fatalf("fsck after recovered export: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("recovered export fails fsck:\n%s", rep)
	}
}
