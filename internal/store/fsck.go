package store

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"satcell/internal/channel"
)

// Problem is one integrity finding of FsckFS.
type Problem struct {
	// File names the artifact (or control file) at fault; empty for
	// directory-level findings.
	File string
	Desc string
}

// FsckReport is the outcome of one dataset-directory audit.
type FsckReport struct {
	Dir          string
	FilesChecked int
	RowsChecked  int
	Problems     []Problem
}

// OK reports whether the directory passed every check.
func (r *FsckReport) OK() bool { return len(r.Problems) == 0 }

// String renders the report, one finding per line.
func (r *FsckReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fsck %s: %d files, %d rows checked\n", r.Dir, r.FilesChecked, r.RowsChecked)
	if r.OK() {
		b.WriteString("  ok: manifest, checksums, schema and timestamps all verify\n")
		return b.String()
	}
	for _, p := range r.Problems {
		name := p.File
		if name == "" {
			name = "."
		}
		fmt.Fprintf(&b, "  BAD %-32s %s\n", name, p.Desc)
	}
	return b.String()
}

func (r *FsckReport) problem(file, format string, args ...any) {
	r.Problems = append(r.Problems, Problem{File: file, Desc: fmt.Sprintf(format, args...)})
}

// FsckFS audits a dataset directory through fsys (nil means the real
// filesystem, so the campaign's verify stage audits the same — possibly
// fault-injected — filesystem the export wrote): manifest presence and
// schema, per-file sha256 and sizes, leftover torn-rename temp files,
// unknown files, an unretired checkpoint, tests.csv/trace schema
// validity, row counts and trace timestamp monotonicity. It returns an
// error only when the directory itself cannot be read; integrity
// findings land in the report.
//
// The manifest's files are checked on GOMAXPROCS goroutines, each into
// its own slot, and the slots are merged in name order, so the report
// is identical at any core count.
func FsckFS(fsys FS, dir string) (*FsckReport, error) {
	fsys = orOS(fsys)
	rep := &FsckReport{Dir: dir}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	onDisk := make(map[string]bool, len(entries))
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		name := e.Name()
		onDisk[name] = true
		if IsTempFile(name) {
			rep.problem(name, "torn rename: leftover atomic-write temp file")
		}
	}
	if onDisk[CheckpointName] {
		rep.problem(CheckpointName,
			"incomplete campaign: checkpoint journal present (resume with drivegen -resume)")
	}
	if !onDisk[ManifestName] {
		rep.problem(ManifestName, "missing manifest: directory was never completed")
		return rep, nil
	}

	m, err := ReadManifestFS(fsys, dir)
	if err != nil {
		rep.problem(ManifestName, "%v", err)
		return rep, nil
	}
	names := make([]string, 0, len(m.Files))
	for name := range m.Files {
		names = append(names, name)
	}
	sort.Strings(names)
	slots := make([]FsckReport, len(names))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(names)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(names) {
					return
				}
				name := names[i]
				if err := m.VerifyFileFS(fsys, dir, name); err != nil {
					slots[i].problem(name, "%v", err)
					continue
				}
				fsckContent(fsys, dir, name, m.Files[name], &slots[i])
			}
		}()
	}
	wg.Wait()
	rep.FilesChecked = len(names)
	for i := range slots {
		rep.RowsChecked += slots[i].RowsChecked
		rep.Problems = append(rep.Problems, slots[i].Problems...)
	}

	stray := make([]string, 0, len(onDisk))
	for name := range onDisk {
		if name == ManifestName || name == CheckpointName || name == LockName || IsTempFile(name) {
			continue
		}
		if _, ok := m.Files[name]; !ok {
			stray = append(stray, name)
		}
	}
	sort.Strings(stray)
	for _, name := range stray {
		rep.problem(name, "unknown file: not listed in the manifest")
	}
	return rep, nil
}

// fsckContent runs format-level checks on a checksum-verified artifact,
// streaming it once: strict parse, manifest row count, and — for traces
// — one network throughout and strictly increasing timestamps. The
// checksum already rules out disk corruption; these checks catch writer
// bugs and hand-edited files whose manifest was regenerated around
// them.
func fsckContent(fsys FS, dir, name string, fi FileInfo, rep *FsckReport) {
	path := filepath.Join(dir, name)
	switch {
	case name == "tests.csv":
		var loadRep LoadReport
		f, err := fsys.Open(path)
		if err == nil {
			err = scanTestRows(f, path, Strict, &loadRep, func(TestRow) error { return nil })
			f.Close()
		}
		if err != nil {
			rep.problem(name, "%v", err)
			return
		}
		rep.RowsChecked += loadRep.Rows
		if loadRep.Rows != fi.Rows {
			rep.problem(name, "row count %d, manifest says %d", loadRep.Rows, fi.Rows)
		}
	case strings.HasPrefix(name, "drive") && strings.HasSuffix(name, ".csv"):
		rows := 0
		var network channel.NetworkID
		last := time.Duration(-1)
		disorder := ""
		err := scanTraceFile(fsys, path, false, nil, func(n channel.NetworkID, r channel.Record) error {
			if rows == 0 {
				network = n
			} else if n != network {
				return fmt.Errorf("network changed mid-trace: %v then %v", network, n)
			}
			if r.Sample.At <= last && disorder == "" {
				disorder = fmt.Sprintf("timestamps not strictly increasing at sample %d (%v after %v)",
					rows, r.Sample.At, last)
			}
			last = r.Sample.At
			rows++
			return nil
		})
		if err != nil {
			rep.problem(name, "%v", err)
			return
		}
		rep.RowsChecked += rows
		if rows != fi.Rows {
			rep.problem(name, "row count %d, manifest says %d", rows, fi.Rows)
		}
		if disorder != "" {
			rep.problem(name, "%s", disorder)
		}
	}
}
