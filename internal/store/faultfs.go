package store

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"satcell/internal/faults"
)

// ErrInjected marks an error as coming from a FaultFS rather than the
// real disk. Injected read/write errors wrap it (inside an
// *fs.PathError, like the genuine article), so tests can tell scripted
// faults from real ones while production code classifies both
// identically.
var ErrInjected = fmt.Errorf("injected I/O fault")

// FaultFS wraps an FS and injects disk faults per a seeded
// faults.IOSchedule: read errors, short reads, bit flips and stalls on
// the read path; ENOSPC and short writes on the write path; torn
// renames between them. It is the disk-side sibling of the PR-2
// network injector — same determinism contract (decisions derive from
// (seed, rule, file, per-file op index), never from wall clock or
// global ordering), same replay gate (IOSchedule.Digest).
type FaultFS struct {
	inner FS
	inj   *faults.IOInjector
}

// NewFaultFS wraps inner with the given fault schedule.
func NewFaultFS(inner FS, sched faults.IOSchedule) *FaultFS {
	return &FaultFS{inner: orOS(inner), inj: faults.NewIOInjector(sched)}
}

// Stats snapshots the faults fired so far.
func (f *FaultFS) Stats() faults.IOStats { return f.inj.Stats() }

// Open opens for reading; the returned file applies read-path faults.
func (f *FaultFS) Open(name string) (File, error) {
	file, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f, base: filepath.Base(name)}, nil
}

// OpenFile opens with flags; the returned file applies faults on both
// paths.
func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f, base: filepath.Base(name)}, nil
}

// CreateTemp creates a temp file whose writes are fault-checked. Fault
// rules match against the destination name embedded in the temp name
// (the atomic writer's ".satcell-tmp-<dest>-<rand>" pattern), so a
// write rule for "tests.csv" fires on the temp file it streams into.
func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	file, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f, base: tempTarget(filepath.Base(file.Name()))}, nil
}

// tempTarget recovers the destination base name from an atomic-write
// temp name; non-temp names pass through unchanged.
func tempTarget(base string) string {
	rest, ok := strings.CutPrefix(base, tmpPrefix)
	if !ok {
		return base
	}
	if i := strings.LastIndexByte(rest, '-'); i > 0 {
		return rest[:i]
	}
	return rest
}

// Rename applies torn-rename faults: the source is truncated to half
// its size, then renamed anyway — the crash artifact of a rename that
// raced a partial flush. The rename itself succeeds, so the torn file
// is only detectable by content checks (manifest hashes, fsck, strict
// parses), which is the point.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	d := f.inj.Decide(faults.IOOpRename, filepath.Base(newpath))
	if d.Kind == faults.IOTornRename {
		if err := truncateHalf(f.inner, oldpath); err != nil {
			return err
		}
	}
	return f.inner.Rename(oldpath, newpath)
}

// Remove passes through.
func (f *FaultFS) Remove(name string) error { return f.inner.Remove(name) }

// ReadDir passes through.
func (f *FaultFS) ReadDir(name string) ([]os.DirEntry, error) { return f.inner.ReadDir(name) }

// MkdirAll passes through.
func (f *FaultFS) MkdirAll(name string, perm os.FileMode) error {
	return f.inner.MkdirAll(name, perm)
}

// truncateHalf rewrites path with only the first half of its bytes,
// through the inner FS (no fault recursion).
func truncateHalf(fsys FS, path string) error {
	src, err := fsys.Open(path)
	if err != nil {
		return err
	}
	b, err := io.ReadAll(src)
	src.Close()
	if err != nil {
		return err
	}
	dst, err := fsys.OpenFile(path, os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := dst.Write(b[:len(b)/2]); err != nil {
		dst.Close()
		return err
	}
	return dst.Close()
}

// faultFile intercepts reads and writes per the injector's decisions.
type faultFile struct {
	File
	fs   *FaultFS
	base string
	// eof forces EOF after a short read truncated the stream.
	eof bool
}

func (f *faultFile) Read(p []byte) (int, error) {
	if f.eof {
		return 0, io.EOF
	}
	d := f.fs.inj.Decide(faults.IOOpRead, f.base)
	switch d.Kind {
	case faults.IOReadErr:
		return 0, &fs.PathError{Op: "read", Path: f.base, Err: ErrInjected}
	case faults.IOStall:
		time.Sleep(d.Stall)
	}
	n, err := f.File.Read(p)
	switch d.Kind {
	case faults.IOShortRead:
		f.eof = true
		if n > 1 {
			n = n / 2
		}
		return n, err
	case faults.IOBitFlip:
		if n > 0 {
			i := int(d.Salt % uint64(n))
			p[i] ^= 1 << ((d.Salt >> 32) % 8)
		}
	}
	return n, err
}

func (f *faultFile) Write(p []byte) (int, error) {
	d := f.fs.inj.Decide(faults.IOOpWrite, f.base)
	switch d.Kind {
	case faults.IOWriteStall:
		time.Sleep(d.Stall)
	case faults.IOWriteErr:
		return 0, &fs.PathError{Op: "write", Path: f.base, Err: fmt.Errorf("%w: %w", ErrInjected, syscall.ENOSPC)}
	case faults.IOShortWrite:
		n, err := f.File.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, &fs.PathError{Op: "write", Path: f.base, Err: fmt.Errorf("%w: %w", ErrInjected, syscall.ENOSPC)}
	}
	return f.File.Write(p)
}
