package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"satcell/internal/channel"
)

// memFS serves one in-memory file, whatever its name, to the readers.
type memFS struct{ data []byte }

func (m memFS) Open(name string) (File, error) {
	return memFile{bytes.NewReader(m.data), name}, nil
}

func (memFS) OpenFile(string, int, os.FileMode) (File, error) { return nil, errors.ErrUnsupported }
func (memFS) CreateTemp(string, string) (File, error)         { return nil, errors.ErrUnsupported }
func (memFS) Rename(string, string) error                     { return errors.ErrUnsupported }
func (memFS) Remove(string) error                             { return errors.ErrUnsupported }
func (memFS) ReadDir(string) ([]os.DirEntry, error)           { return nil, errors.ErrUnsupported }
func (memFS) MkdirAll(string, os.FileMode) error              { return errors.ErrUnsupported }

// memFile is a read-only in-memory File.
type memFile struct {
	*bytes.Reader
	name string
}

func (memFile) Write([]byte) (int, error) { return 0, errors.ErrUnsupported }
func (memFile) Close() error              { return nil }
func (f memFile) Name() string            { return f.name }
func (memFile) Sync() error               { return nil }

// checkScanReport fails unless a scan error is a store: error naming
// the file and every itemised skip names the file and a line.
func checkScanReport(t *testing.T, path string, err error, rep *LoadReport) {
	t.Helper()
	if err != nil && !strings.HasPrefix(err.Error(), "store: "+path+": ") {
		t.Fatalf("error %q is not an itemised store: error", err)
	}
	for _, e := range rep.Errors {
		if e.File != path || e.Line < 1 {
			t.Fatalf("skip %+v does not name the file and a line", e)
		}
	}
}

// lenientMatchesStrict runs scan strictly and leniently over one file.
// Both must fail with itemised store: errors and skips, and if the
// strict scan succeeds the lenient one must skip nothing and hand fn the
// same rows.
func lenientMatchesStrict[R comparable](t *testing.T, path string, scan func(Mode, *LoadReport, func(R)) error) {
	t.Helper()
	run := func(mode Mode) ([]R, *LoadReport, error) {
		var rows []R
		rep := &LoadReport{}
		err := scan(mode, rep, func(r R) { rows = append(rows, r) })
		checkScanReport(t, path, err, rep)
		return rows, rep, err
	}
	strict, _, err := run(Strict)
	lenient, rep, lerr := run(Lenient)
	if err != nil {
		return
	}
	if lerr != nil || rep.Skipped != 0 || len(lenient) != len(strict) {
		t.Fatalf("strict scan read %d rows, lenient: err %v, %d skipped, %d rows",
			len(strict), lerr, rep.Skipped, len(lenient))
	}
	for i := range strict {
		if lenient[i] != strict[i] {
			t.Fatalf("row %d: lenient %+v, strict %+v", i, lenient[i], strict[i])
		}
	}
}

// FuzzScanTraceFS holds ScanTraceFS to its contract on any shard: no
// panic, itemised store: errors and skips, and a lenient scan equal to
// a strict scan that succeeded.
func FuzzScanTraceFS(f *testing.F) {
	const path = "drive000_route_ATT.csv"
	type row struct {
		n channel.NetworkID
		r channel.Record
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		lenientMatchesStrict(t, path, func(mode Mode, rep *LoadReport, fn func(row)) error {
			return ScanTraceFS(memFS{data}, path, mode, rep, func(n channel.NetworkID, r channel.Record) error {
				fn(row{n, r})
				return nil
			})
		})
	})
}

// FuzzScanTestsFS holds ScanTestsFS to the same contract on any
// tests.csv.
func FuzzScanTestsFS(f *testing.F) {
	const path = "tests.csv"
	f.Fuzz(func(t *testing.T, data []byte) {
		lenientMatchesStrict(t, path, func(mode Mode, rep *LoadReport, fn func(TestRow)) error {
			return ScanTestsFS(memFS{data}, path, mode, rep, func(r TestRow) error {
				fn(r)
				return nil
			})
		})
	})
}

// FuzzReplayJournal holds ReplayJournal to its contract on any journal
// file: no panic, errors prefixed store:, and the entries returned are
// exactly the journal's valid prefix — the complete lines after the
// meta line, in order, up to the first that is not valid JSON.
func FuzzReplayJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		meta, entries, err := ReplayJournal(memFS{data}, "JOURNAL")
		if err != nil {
			if !strings.HasPrefix(err.Error(), "store: ") {
				t.Fatalf("error %q is not a store: error", err)
			}
			return
		}
		// Only '\n'-terminated lines count as journalled.
		lines := bytes.SplitAfter(data, []byte("\n"))
		var complete [][]byte
		for _, l := range lines {
			if bytes.HasSuffix(l, []byte("\n")) {
				complete = append(complete, l[:len(l)-1])
			}
		}
		if meta == nil {
			if len(complete) > 0 || len(entries) > 0 {
				t.Fatalf("no meta with %d complete lines and %d entries", len(complete), len(entries))
			}
			return
		}
		if meta.Schema < 1 || meta.Schema > SchemaVersion {
			t.Fatalf("accepted schema %d", meta.Schema)
		}
		if len(entries) > len(complete)-1 {
			t.Fatalf("%d entries from %d complete lines after the meta line", len(entries), len(complete)-1)
		}
		for i, e := range entries {
			if !bytes.Equal(e, complete[1+i]) {
				t.Fatalf("entry %d = %q, line %d is %q", i, e, i+2, complete[1+i])
			}
			if !json.Valid(e) {
				t.Fatalf("entry %d %q is not valid JSON", i, e)
			}
		}
		if next := 1 + len(entries); next < len(complete) && json.Valid(complete[next]) {
			t.Fatalf("replay stopped before valid line %d %q", next+1, complete[next])
		}
	})
}
