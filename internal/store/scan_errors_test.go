package store

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"satcell/internal/channel"
)

// The streaming readers meet truncated and mangled artifacts in the
// wild (interrupted copies, full disks, fault-injected chaos runs).
// These tests pin the contract the supervisor's quarantine logic relies
// on: every corruption class surfaces as a file:line-itemized error,
// never a panic, and lenient mode itemizes skips instead of aborting.

var lineItemized = regexp.MustCompile(`line [1-9][0-9]*`)

// mutateCopy writes a mutated copy of src into its own temp dir and
// returns the new path.
func mutateCopy(t *testing.T, src string, mutate func([]byte) []byte) string {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(t.TempDir(), filepath.Base(src))
	if err := os.WriteFile(dst, mutate(b), 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

// truncateMidRow cuts the file a few bytes into its final data row,
// leaving a partial line with no trailing newline — the shape a torn
// copy or out-of-space write leaves behind.
func truncateMidRow(b []byte) []byte {
	trimmed := bytes.TrimRight(b, "\n")
	last := bytes.LastIndexByte(trimmed, '\n')
	return trimmed[:last+4]
}

// cutLastField drops the final field of the last data row (cut exactly
// at a comma), keeping the trailing newline: a row with too few fields.
func cutLastField(b []byte) []byte {
	trimmed := bytes.TrimRight(b, "\n")
	comma := bytes.LastIndexByte(trimmed, ',')
	return append(append([]byte{}, trimmed[:comma]...), '\n')
}

// headerOnly keeps just the first line.
func headerOnly(b []byte) []byte {
	nl := bytes.IndexByte(b, '\n')
	return b[:nl+1]
}

func exportedShardPath(t *testing.T, dir string) string {
	t.Helper()
	ds := testDataset()
	return filepath.Join(dir, ShardName(0, ds.Drives[0].Route, channel.Networks[0]))
}

func wantItemized(t *testing.T, err error, path string) {
	t.Helper()
	if err == nil {
		t.Fatal("scan accepted the corrupted file")
	}
	if !strings.Contains(err.Error(), filepath.Base(path)) {
		t.Errorf("error does not name the file: %v", err)
	}
	if !lineItemized.MatchString(err.Error()) {
		t.Errorf("error does not name the line: %v", err)
	}
}

func TestScanTestsTruncatedMidRow(t *testing.T) {
	dir := exportClean(t)
	path := mutateCopy(t, filepath.Join(dir, "tests.csv"), truncateMidRow)
	err := ScanTestsFS(nil, path, Strict, &LoadReport{}, func(TestRow) error { return nil })
	wantItemized(t, err, path)

	// Lenient mode skips the torn row, itemizes it, and keeps the rest.
	rep := &LoadReport{}
	if err := ScanTestsFS(nil, path, Lenient, rep, func(TestRow) error { return nil }); err != nil {
		t.Fatalf("lenient scan aborted: %v", err)
	}
	if rep.Skipped != 1 || len(rep.Errors) != 1 {
		t.Fatalf("lenient scan skipped %d rows with %d errors, want 1/1", rep.Skipped, len(rep.Errors))
	}
	if e := rep.Errors[0]; e.File != path || e.Line == 0 {
		t.Errorf("itemized skip %+v lacks file:line", e)
	}
	if rep.Rows == 0 {
		t.Error("lenient scan delivered no intact rows")
	}
}

func TestScanTestsRowMissingFields(t *testing.T) {
	dir := exportClean(t)
	path := mutateCopy(t, filepath.Join(dir, "tests.csv"), cutLastField)
	err := ScanTestsFS(nil, path, Strict, &LoadReport{}, func(TestRow) error { return nil })
	wantItemized(t, err, path)
	if !strings.Contains(err.Error(), "fields") {
		t.Errorf("short row not diagnosed as a field-count problem: %v", err)
	}
}

// TestScanTestsNoTrailingNewlineIntactRow: an artifact whose final row
// is complete but unterminated is valid CSV, not corruption — the
// scanners must not confuse it with truncation.
func TestScanTestsNoTrailingNewlineIntactRow(t *testing.T) {
	dir := exportClean(t)
	path := mutateCopy(t, filepath.Join(dir, "tests.csv"), func(b []byte) []byte {
		return bytes.TrimRight(b, "\n")
	})
	rep := &LoadReport{}
	if err := ScanTestsFS(nil, path, Strict, rep, func(TestRow) error { return nil }); err != nil {
		t.Fatalf("unterminated final row rejected: %v", err)
	}
	if rep.Rows != len(testDataset().Tests) {
		t.Errorf("scanned %d rows, want %d", rep.Rows, len(testDataset().Tests))
	}
}

func TestScanTestsEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tests.csv")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{Strict, Lenient} {
		err := ScanTestsFS(nil, path, mode, &LoadReport{}, func(TestRow) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "empty tests file") {
			t.Errorf("mode %v: empty file gave %v", mode, err)
		}
	}
}

func TestScanTestsHeaderOnly(t *testing.T) {
	dir := exportClean(t)
	path := mutateCopy(t, filepath.Join(dir, "tests.csv"), headerOnly)
	for _, mode := range []Mode{Strict, Lenient} {
		err := ScanTestsFS(nil, path, mode, &LoadReport{}, func(TestRow) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "header-only") {
			t.Errorf("mode %v: header-only file gave %v", mode, err)
		}
	}
}

func TestScanTraceTruncatedMidRow(t *testing.T) {
	dir := exportClean(t)
	path := mutateCopy(t, exportedShardPath(t, dir), truncateMidRow)
	err := ScanTraceFS(nil, path, Strict, &LoadReport{}, func(channel.NetworkID, channel.Record) error { return nil })
	wantItemized(t, err, path)

	rep := &LoadReport{}
	if err := ScanTraceFS(nil, path, Lenient, rep, func(channel.NetworkID, channel.Record) error { return nil }); err != nil {
		t.Fatalf("lenient scan aborted: %v", err)
	}
	if rep.Skipped != 1 || len(rep.Errors) != 1 {
		t.Fatalf("lenient scan skipped %d rows with %d errors, want 1/1", rep.Skipped, len(rep.Errors))
	}
	if e := rep.Errors[0]; e.File != path || e.Line == 0 {
		t.Errorf("itemized skip %+v lacks file:line", e)
	}
	if rep.Rows == 0 {
		t.Error("lenient scan delivered no intact records")
	}
}

func TestScanTraceRowMissingFields(t *testing.T) {
	dir := exportClean(t)
	path := mutateCopy(t, exportedShardPath(t, dir), cutLastField)
	err := ScanTraceFS(nil, path, Strict, &LoadReport{}, func(channel.NetworkID, channel.Record) error { return nil })
	wantItemized(t, err, path)
}

func TestScanTraceEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "drive000_r_RM.csv")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{Strict, Lenient} {
		err := ScanTraceFS(nil, path, mode, &LoadReport{}, func(channel.NetworkID, channel.Record) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "empty trace file") {
			t.Errorf("mode %v: empty shard gave %v", mode, err)
		}
		if err != nil && !strings.Contains(err.Error(), filepath.Base(path)) {
			t.Errorf("mode %v: error does not name the file: %v", mode, err)
		}
	}
}

func TestScanTraceHeaderOnly(t *testing.T) {
	dir := exportClean(t)
	path := mutateCopy(t, exportedShardPath(t, dir), headerOnly)
	for _, mode := range []Mode{Strict, Lenient} {
		err := ScanTraceFS(nil, path, mode, &LoadReport{}, func(channel.NetworkID, channel.Record) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "header-only") {
			t.Errorf("mode %v: header-only shard gave %v", mode, err)
		}
	}
}
