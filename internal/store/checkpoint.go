package store

import (
	"encoding/json"
	"fmt"
	"path/filepath"
)

// checkpointEntry journals one completed shard.
type checkpointEntry struct {
	Name string `json:"name"`
	FileInfo
}

// checkpoint is the append-only shard journal of an in-flight export,
// built on the shared Journal primitive. Each committed drive appends
// one JSON line per shard it wrote, all under one fsync, so after a
// crash the journal names every shard that was durably renamed into
// place; a torn final line (crash mid-append) is ignored on replay.
type checkpoint struct {
	j *Journal
}

// openCheckpoint opens dir's journal through fsys. With resume=false
// any previous journal is discarded and a fresh one started. With
// resume=true the existing journal is replayed: its meta line must
// match meta, and the claimed entries are returned for the caller to
// verify against disk.
func openCheckpoint(fsys FS, dir string, meta JournalMeta, resume bool) (*checkpoint, map[string]FileInfo, error) {
	j, raw, err := OpenJournal(fsys, filepath.Join(dir, CheckpointName), meta, resume)
	if err != nil {
		return nil, nil, err
	}
	claimed := make(map[string]FileInfo)
	for _, line := range raw {
		var e checkpointEntry
		if err := json.Unmarshal(line, &e); err != nil {
			// Replay already dropped the torn tail; a line that parses as
			// JSON but not as an entry is corruption, not a crash artifact.
			j.Close()
			return nil, nil, fmt.Errorf("store: parse %s entry: %w", CheckpointName, err)
		}
		if !safeArtifactName(e.Name) {
			j.Close()
			return nil, nil, fmt.Errorf("store: %s journals unsafe file name %q", CheckpointName, e.Name)
		}
		claimed[e.Name] = e.FileInfo
	}
	return &checkpoint{j: j}, claimed, nil
}

// record journals completed shards durably, with one write and one
// fsync.
func (c *checkpoint) record(entries ...checkpointEntry) error {
	vs := make([]any, len(entries))
	for i := range entries {
		vs[i] = entries[i]
	}
	return c.j.AppendBatch(vs...)
}

// close closes the journal file (the journal itself stays on disk until
// the export finishes and removes it).
func (c *checkpoint) close() error { return c.j.Close() }
