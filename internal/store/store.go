// Package store is the crash-safe, self-validating dataset store behind
// the offline pipeline (drivegen -> trace/tests CSVs -> satcell-analyze
// / figures). The paper's value is its 1,239-test driving dataset; this
// package makes our regenerated equivalent a verifiable artifact rather
// than a pile of best-effort files:
//
//   - Atomic persistence: every artifact write goes through temp file +
//     fsync + rename with a checked Close, then a directory fsync
//     (WriteFileAtomicFS; an export pays that fsync once per drive's
//     shards), and each dataset directory gains a MANIFEST — schema
//     version, per-file sha256, byte size and row count — written last,
//     so a partially written campaign is always detectable.
//
//   - Resumable generation: ExportDatasetContext, and
//     StreamDatasetContext as the generator emits each drive, journal
//     completed shards into an append-only CHECKPOINT; an interrupted
//     export restarted with Resume verifies existing shards against the
//     journal and regenerates only the missing or corrupt ones.
//     Generation is deterministic (internal/dataset's planning pass),
//     so a resumed campaign is bit-identical to an uninterrupted one.
//
//   - Validating ingestion: LoadTestsFS and the streaming ScanTestsFS /
//     ScanTraceFS layer a strict or lenient loader over the CSV readers;
//     lenient mode skips and counts malformed rows into a LoadReport
//     instead of aborting a 1,000-test load on one bad line.
//
//   - FsckFS audits a dataset directory: manifest checksums, torn
//     renames, schema, row counts and timestamp monotonicity.
package store

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// tmpPrefix marks in-progress atomic writes. A leftover file with this
// prefix is a torn rename: the process died between writing the temp
// file and renaming it into place. FsckFS flags such files; a dataset
// export removes them before writing.
const tmpPrefix = ".satcell-tmp-"

// IsTempFile reports whether name is an in-progress atomic-write file.
func IsTempFile(name string) bool { return strings.HasPrefix(name, tmpPrefix) }

// WriteFileAtomicFS writes path through fsys (nil means the real
// filesystem) by streaming write's output into a temp file in the same
// directory, then fsync + checked Close + rename + directory fsync. On
// any error the temp file is removed and the previous contents of path
// (if any) are untouched: readers never see a torn or truncated file,
// and an ENOSPC surfaces as an error instead of a silently short
// artifact.
func WriteFileAtomicFS(fsys FS, path string, write func(w io.Writer) error) error {
	fsys = orOS(fsys)
	if err := writeFileRenamed(fsys, path, write); err != nil {
		return err
	}
	return syncDir(fsys, filepath.Dir(path))
}

// writeFileRenamed is WriteFileAtomicFS without the directory fsync: the
// file's bytes are durable and renamed into place, but the rename itself
// survives a crash only once the caller fsyncs the directory. Writers
// that commit several files together pay that fsync once for all of
// them.
func writeFileRenamed(fsys FS, path string, write func(w io.Writer) error) (err error) {
	f, err := fsys.CreateTemp(filepath.Dir(path), tmpPrefix+filepath.Base(path)+"-")
	if err != nil {
		return fmt.Errorf("store: create temp for %s: %w", path, err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			fsys.Remove(tmp)
		}
	}()
	bw := bufio.NewWriter(f)
	if err = write(bw); err != nil {
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	if err = bw.Flush(); err != nil {
		return fmt.Errorf("store: flush %s: %w", path, err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("store: fsync %s: %w", path, err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", path, err)
	}
	if err = fsys.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: rename %s: %w", path, err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(fsys FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir %s: %w", dir, err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("store: fsync dir %s: %w", dir, serr)
	}
	return cerr
}

// hashFile returns the hex sha256 and byte size of the file at path.
func hashFile(fsys FS, path string) (sum string, size int64, err error) {
	f, err := orOS(fsys).Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return "", 0, fmt.Errorf("store: hash %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

// DigestDir hashes every regular file under dir — names and contents,
// in sorted name order — into one hex sha256. Two directories share a
// digest iff they hold bit-identical artifact sets; the kill-and-resume
// tests pin golden values of this.
func DigestDir(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.Type().IsRegular() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "file %s\n", name)
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", fmt.Errorf("store: digest %s: %w", name, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// removeTempFiles deletes leftover atomic-write temp files (torn
// renames from a crashed export) under dir.
func removeTempFiles(fsys FS, dir string) error {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.Type().IsRegular() && IsTempFile(e.Name()) {
			if err := fsys.Remove(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}
