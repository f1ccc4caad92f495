package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// JournalMeta is the first line of every append-only journal: the
// campaign parameters the journal belongs to. A resume with different
// parameters would silently mix two campaigns, so it is refused.
type JournalMeta struct {
	Schema int     `json:"schema"`
	Tool   string  `json:"tool"`
	Seed   int64   `json:"seed"`
	Scale  float64 `json:"scale"`
}

// Journal is the crash-only append-only journal primitive behind the
// export CHECKPOINT, the campaign supervisor's stage log and the
// flight recorder's TELEMETRY stream: one JSON object per line, each
// append fsynced before it is acknowledged, so after a `kill -9` the
// file names exactly the work that was durably completed. AppendBatch
// group-commits several lines under one fsync; AppendUnsynced writes a
// line the next fsynced append (or Close) makes durable. The first
// line is the JournalMeta; a torn final line (the crash landed
// mid-append) is dropped on replay — everything journalled after it
// cannot have been acknowledged — and the file is healed back to its
// valid prefix before a resume appends again, so the new records never
// glue onto the torn fragment.
type Journal struct {
	f File
	// unsynced is set while a line AppendUnsynced wrote awaits an fsync.
	unsynced bool
	line     []byte
}

// journalReplay is one parsed journal: the meta line, the surviving
// entries, the newline-terminated byte prefix they came from, and
// whether the file extends past that prefix (a torn tail).
type journalReplay struct {
	meta    *JournalMeta
	entries []json.RawMessage
	valid   []byte
	torn    bool
}

// OpenJournal opens path's journal through fsys (nil means the real
// filesystem). With resume=false any previous journal is discarded and
// a fresh one started (the meta line is appended durably before
// OpenJournal returns). With resume=true an existing journal is
// replayed: its meta line must match meta, the surviving entries are
// returned as raw JSON for the caller to decode, and subsequent appends
// extend the same file. If the previous process died mid-append, the
// torn tail is first healed away with an atomic rewrite of the valid
// prefix — appending through O_APPEND directly would concatenate the
// next record onto the partial line, making both invisible to every
// later replay.
func OpenJournal(fsys FS, path string, meta JournalMeta, resume bool) (*Journal, []json.RawMessage, error) {
	fsys = orOS(fsys)
	if resume {
		rep, err := replayJournal(fsys, path)
		if err != nil {
			return nil, nil, err
		}
		if rep.meta != nil {
			if *rep.meta != meta {
				return nil, nil, fmt.Errorf(
					"store: resume mismatch: %s was written by tool=%s seed=%d scale=%g, asked to resume tool=%s seed=%d scale=%g",
					filepath.Base(path), rep.meta.Tool, rep.meta.Seed, rep.meta.Scale,
					meta.Tool, meta.Seed, meta.Scale)
			}
			if rep.torn {
				if err := WriteFileAtomicFS(fsys, path, func(w io.Writer) error {
					_, werr := w.Write(rep.valid)
					return werr
				}); err != nil {
					return nil, nil, fmt.Errorf("store: heal torn tail of %s: %w", filepath.Base(path), err)
				}
			}
			f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, nil, err
			}
			return &Journal{f: f}, rep.entries, nil
		}
	}
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{f: f}
	if err := j.Append(meta); err != nil {
		f.Close()
		return nil, nil, err
	}
	return j, nil, nil
}

// ReplayJournal reads a journal without opening it for append: the meta
// line (nil if the file is missing or died before the meta line landed)
// and the surviving entries, torn tail dropped. This is the read-only
// view report renderers use on a run directory that may still be owned
// by a live campaign.
func ReplayJournal(fsys FS, path string) (*JournalMeta, []json.RawMessage, error) {
	rep, err := replayJournal(orOS(fsys), path)
	if err != nil {
		return nil, nil, err
	}
	return rep.meta, rep.entries, nil
}

// replayJournal reads a journal's meta line and surviving entries while
// tracking the exact byte prefix they occupy, so a resume can heal a
// torn tail. Only a '\n'-terminated line counts as journalled: Append
// writes record+newline in one write, so a line without its newline is
// a torn append regardless of whether its bytes happen to parse. A
// missing or empty file — or one that died inside the meta line —
// replays as meta==nil and the caller starts fresh.
func replayJournal(fsys FS, path string) (*journalReplay, error) {
	f, err := fsys.Open(path)
	if os.IsNotExist(err) {
		return &journalReplay{}, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	name := filepath.Base(path)
	rep := &journalReplay{}
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			rep.torn = true
			break
		}
		line := data[off : off+nl]
		if rep.meta == nil {
			var meta JournalMeta
			if err := json.Unmarshal(line, &meta); err != nil {
				return nil, fmt.Errorf("store: parse %s meta: %w", name, err)
			}
			if meta.Schema < 1 || meta.Schema > SchemaVersion {
				return nil, fmt.Errorf("store: %s schema %d not supported (this build reads <= %d)",
					name, meta.Schema, SchemaVersion)
			}
			rep.meta = &meta
		} else {
			if !json.Valid(line) {
				// A torn or corrupt line: nothing after it can have been
				// acknowledged, so stop replaying here.
				rep.torn = true
				break
			}
			rep.entries = append(rep.entries, json.RawMessage(append([]byte(nil), line...)))
		}
		off += nl + 1
	}
	if off < len(data) {
		rep.torn = true
	}
	rep.valid = data[:off]
	return rep, nil
}

// Append journals v durably: marshal, write one line, fsync. The entry
// exists for every replay after Append returns.
func (j *Journal) Append(v any) error { return j.AppendBatch(v) }

// AppendBatch journals vs durably as one group commit: every line in one
// write, then one fsync. A crash before the fsync may keep any prefix of
// the lines, never a line the replay would misread (a torn last line is
// dropped). An empty batch writes nothing.
func (j *Journal) AppendBatch(vs ...any) error {
	if len(vs) == 0 {
		return nil
	}
	if err := j.write(vs...); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("store: fsync %s: %w", filepath.Base(j.f.Name()), err)
	}
	j.unsynced = false
	return nil
}

// AppendUnsynced writes v's line with one write(2) and no fsync: a
// killed process loses none of these lines, but a power loss may lose
// those written after the last fsynced append. The next Append,
// AppendBatch or Close makes them durable.
func (j *Journal) AppendUnsynced(v any) error {
	if err := j.write(v); err != nil {
		return err
	}
	j.unsynced = true
	return nil
}

// write marshals vs one line each and writes them with one write.
func (j *Journal) write(vs ...any) error {
	j.line = j.line[:0]
	for _, v := range vs {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		j.line = append(append(j.line, b...), '\n')
	}
	if _, err := j.f.Write(j.line); err != nil {
		return fmt.Errorf("store: append %s: %w", filepath.Base(j.f.Name()), err)
	}
	return nil
}

// Close fsyncs any line AppendUnsynced left pending, then closes the
// journal file. The journal itself stays on disk: it is the durable run
// record until the owner retires it.
func (j *Journal) Close() error {
	var serr error
	if j.unsynced {
		if serr = j.f.Sync(); serr != nil {
			serr = fmt.Errorf("store: fsync %s: %w", filepath.Base(j.f.Name()), serr)
		}
		j.unsynced = false
	}
	if cerr := j.f.Close(); serr == nil {
		serr = cerr
	}
	return serr
}
