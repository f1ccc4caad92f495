package core

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"satcell/internal/channel"
	"satcell/internal/dataset"
	"satcell/internal/store"
)

// StoreSource streams a PR-3 artifact directory (MANIFEST + per-drive
// per-network trace shards + tests.csv) through the analysis pipeline
// without ever holding more than one drive in memory. Planning reads
// the control files (MANIFEST, tests.csv — structural, fatal in every
// mode); loading scans one drive's trace shards, concurrently and
// repeatably, so the supervisor can retry or quarantine drives
// individually.
//
// The trace CSVs round samples to fixed decimals, so a directory scan
// is not bit-identical to analyzing the generating dataset in memory —
// but it IS bit-identical across worker counts, and every measured
// value is within CSV rounding of the in-memory result.
type StoreSource struct {
	dir      string
	mode     store.Mode
	fsys     store.FS
	manifest *store.Manifest
	shards   []store.TraceShard
	networks []channel.NetworkID
	// groups and tests are the per-drive plan, fixed by Plan.
	groups [][]store.TraceShard
	tests  map[int][]store.TestRow

	// mu guards Report: shard loads run concurrently, and a load's
	// row/skip counts are published only when the whole shard succeeds,
	// so a retried or quarantined attempt never double-counts.
	mu sync.Mutex
	// Report accumulates row/skip counts across the scan (meaningful
	// after the analysis returns; Lenient mode counts skipped rows
	// here).
	Report store.LoadReport
}

// OpenStoreSourceFS validates dir's manifest and prepares the shard
// scan through fsys (nil means the real filesystem; the disk-fault
// chaos suite opens sources over a store.FaultFS).
func OpenStoreSourceFS(fsys store.FS, dir string, mode store.Mode) (*StoreSource, error) {
	m, err := store.ReadManifestFS(fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("core: open store source: %w", err)
	}
	shards, err := store.ListTraceShards(m)
	if err != nil {
		return nil, err
	}
	s := &StoreSource{dir: dir, mode: mode, fsys: fsys, manifest: m, shards: shards}
	s.networks = s.campaignNetworks()
	return s, nil
}

// campaignNetworks resolves the campaign's network order: the
// manifest's recorded list when present, else the distinct networks of
// the first drive's shards in name order (an older artifact's best
// available approximation).
func (s *StoreSource) campaignNetworks() []channel.NetworkID {
	if c := s.manifest.Campaign; c != nil && len(c.Networks) > 0 {
		out := make([]channel.NetworkID, len(c.Networks))
		for i, id := range c.Networks {
			out[i] = channel.NetworkID(id)
		}
		return out
	}
	var out []channel.NetworkID
	seen := make(map[channel.NetworkID]bool)
	for _, sh := range s.shards {
		if sh.Drive != s.shards[0].Drive {
			break
		}
		if !seen[sh.Network] {
			seen[sh.Network] = true
			out = append(out, sh.Network)
		}
	}
	return out
}

// Info implements ShardSource.
func (s *StoreSource) Info() (SourceInfo, error) {
	info := SourceInfo{Networks: s.networks, Seed: s.manifest.Seed}
	if c := s.manifest.Campaign; c != nil {
		info.TotalKm, info.TotalTestMin = c.Km, c.TestMin
	}
	return info, nil
}

// Plan implements ShardSource: scan tests.csv once (a control file —
// an unreadable one fails the run in every mode) and group the trace
// shards by drive, in MANIFEST (export) order: drive-major, networks
// in campaign order within a drive.
func (s *StoreSource) Plan() ([]ShardRef, error) {
	tests, err := s.groupTests()
	if err != nil {
		return nil, err
	}
	s.tests = tests
	s.groups = nil
	var refs []ShardRef
	for i := 0; i < len(s.shards); {
		drive := s.shards[i].Drive
		j := i
		for ; j < len(s.shards) && s.shards[j].Drive == drive; j++ {
		}
		refs = append(refs, ShardRef{Index: len(refs), Drive: drive,
			Label: fmt.Sprintf("drive%03d_%s", drive, s.shards[i].Route)})
		s.groups = append(s.groups, s.shards[i:j])
		i = j
	}
	return refs, nil
}

// Load implements ShardSource: stream one drive's trace shards and
// rebuild its tests. Peak memory is one drive's records; the load is
// self-contained, so the supervisor can run it concurrently with other
// drives and repeat it after a transient I/O failure.
func (s *StoreSource) Load(ref ShardRef) (*Shard, error) {
	group := s.groups[ref.Index]
	var local store.LoadReport
	sh := &Shard{Drive: ref.Drive, Route: group[0].Route,
		Records: make(map[channel.NetworkID][]channel.Record, len(group))}
	for _, ts := range group {
		recs := make([]channel.Record, 0, ts.Rows)
		err := store.ScanTraceFS(s.fsys, filepath.Join(s.dir, ts.Name), s.mode, &local,
			func(n channel.NetworkID, r channel.Record) error {
				recs = append(recs, r)
				return nil
			})
		if err != nil {
			return nil, err
		}
		sh.Records[ts.Network] = recs
	}
	rows := s.tests[ref.Drive]
	sh.Tests = make([]*dataset.Test, 0, len(rows))
	for _, row := range rows {
		t, err := rebuildTest(row, ref.Drive, sh)
		if err != nil {
			return nil, err
		}
		t.Reevaluate(s.manifest.Seed)
		sh.Tests = append(sh.Tests, t)
		if sh.State == "" {
			sh.State = t.State
		}
	}
	s.mu.Lock()
	s.Report.Merge(&local)
	s.mu.Unlock()
	return sh, nil
}

// groupTests scans tests.csv once and buckets rows by drive. Rows from
// artifacts predating the drive column (Drive == -1) fall back to a
// boundary heuristic: tests.csv is written in dataset order (drive-
// major, start ascending within a drive), so a route change or a start
// regression marks the next drive.
func (s *StoreSource) groupTests() (map[int][]store.TestRow, error) {
	out := make(map[int][]store.TestRow)
	heuristicDrive := 0
	var prev *store.TestRow
	var local store.LoadReport
	// The grouped rows live for the whole scan, and each row's string
	// fields pin the CSV line they were sliced from; interning the few
	// distinct values drops those lines as soon as they are parsed.
	interned := make(map[string]string)
	intern := func(v string) string {
		if c, ok := interned[v]; ok {
			return c
		}
		c := strings.Clone(v)
		interned[c] = c
		return c
	}
	err := store.ScanTestsFS(s.fsys, filepath.Join(s.dir, "tests.csv"), s.mode, &local,
		func(row store.TestRow) error {
			drive := row.Drive
			if drive < 0 {
				if prev != nil && (row.Route != prev.Route || row.StartS < prev.StartS) {
					heuristicDrive++
				}
				drive = heuristicDrive
			}
			r := row
			prev = &r
			row.Network, row.Kind, row.Route = intern(row.Network), intern(row.Kind), intern(row.Route)
			row.State, row.Area, row.Outcome = intern(row.State), intern(row.Area), intern(row.Outcome)
			out[drive] = append(out[drive], row)
			return nil
		})
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.Report.Merge(&local)
	s.mu.Unlock()
	return out, nil
}

// rebuildTest reconstructs one dataset.Test from its tests.csv row and
// the drive's scanned records; the caller re-evaluates it to recompute
// the measured values deterministically.
func rebuildTest(row store.TestRow, drive int, sh *Shard) (*dataset.Test, error) {
	n := channel.NetworkID(row.Network)
	recs, ok := sh.Records[n]
	if !ok {
		return nil, fmt.Errorf("core: test %d names network %q with no trace shard in drive %d",
			row.ID, row.Network, drive)
	}
	kind, err := dataset.ParseKind(row.Kind)
	if err != nil {
		return nil, fmt.Errorf("core: test %d has unknown kind %q", row.ID, row.Kind)
	}
	start := time.Duration(row.StartS * float64(time.Second))
	dur := time.Duration(row.DurationS * float64(time.Second))
	t := &dataset.Test{
		ID: row.ID, Network: n, Kind: kind, Drive: drive,
		Route: row.Route, State: row.State,
		Start: start, Duration: dur,
		Records: dataset.Window(recs, start, start+dur),
	}
	return t, nil
}
