package store

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"satcell/internal/channel"
	"satcell/internal/trace"
)

// This file is the incremental read side of the store: row-streaming
// readers and shard enumeration for consumers (the streaming analyzer)
// that must never hold a whole campaign in memory. The batch loaders in
// load.go are thin wrappers over the same scanners.

// ScanTestsFS streams the tests.csv at path through fn in file order,
// reading through fsys (nil means the real filesystem). Malformed rows
// follow mode (Strict aborts, Lenient skips into rep); an error
// returned by fn aborts the scan in both modes. A file with a header
// but no data rows at all is an error in both modes: a zero-test
// campaign file is a truncation artifact, not a campaign.
func ScanTestsFS(fsys FS, path string, mode Mode, rep *LoadReport, fn func(TestRow) error) error {
	f, err := orOS(fsys).Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	before := rep.Rows + rep.Skipped
	if err := scanTestRows(f, path, mode, rep, fn); err != nil {
		return err
	}
	if rep.Rows+rep.Skipped == before {
		return fmt.Errorf("store: %s: no data rows (header-only file)", path)
	}
	return nil
}

// ScanTraceFS streams one trace shard through fn in file order without
// materialising the trace, reading through fsys (nil means the real
// filesystem). Malformed rows follow mode; an error returned by fn
// aborts the scan in both modes. rep accumulates row and skip counts.
// Like ScanTestsFS, a header-only shard is an error in both modes.
func ScanTraceFS(fsys FS, path string, mode Mode, rep *LoadReport, fn func(channel.NetworkID, channel.Record) error) error {
	rep.Files++
	before := rep.Rows + rep.Skipped
	// The trace scanner treats fn errors as row errors (lenient mode
	// would skip them), so consumer aborts are stashed and re-raised.
	var abort error
	wrapped := func(n channel.NetworkID, rec channel.Record) error {
		if abort != nil {
			return abort
		}
		if err := fn(n, rec); err != nil {
			abort = err
			return err
		}
		rep.Rows++
		return nil
	}
	var onSkip func(int, error)
	if mode != Strict {
		onSkip = func(line int, rowErr error) {
			if abort == nil {
				rep.note(path, line, rowErr)
			}
		}
	}
	err := scanTraceFile(fsys, path, mode != Strict, onSkip, wrapped)
	if abort != nil {
		return abort
	}
	if err != nil {
		return err
	}
	if rep.Rows+rep.Skipped == before {
		return fmt.Errorf("store: %s: no data rows (header-only file)", path)
	}
	return nil
}

// scanTraceFile streams the trace shard at path through the trace
// scanner, like trace.ReadCSV but without building the trace: an error
// from fn is a row error, named with its line (fatal unless lenient).
// A header-only shard is not an error here.
func scanTraceFile(fsys FS, path string, lenient bool, onSkip func(int, error), fn func(channel.NetworkID, channel.Record) error) error {
	f, err := orOS(fsys).Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.ScanRecordsCSV(f, lenient, onSkip, fn); err != nil {
		return fmt.Errorf("store: %s: %w", path, err)
	}
	return nil
}

// TraceShard locates one drive/network trace file of a dataset
// directory, recovered from its canonical ShardName.
type TraceShard struct {
	Name    string
	Drive   int
	Route   string
	Network channel.NetworkID
	// Rows echoes the manifest's data-row count for the file.
	Rows int
}

// ParseShardName inverts ShardName. Network ids may themselves contain
// underscores, so when the manifest names the campaign's networks the
// longest matching suffix wins; otherwise the split is at the last
// underscore (correct for every built-in id).
func ParseShardName(name string, networks []string) (TraceShard, bool) {
	var sh TraceShard
	base, ok := strings.CutSuffix(name, ".csv")
	if !ok {
		return sh, false
	}
	rest, ok := strings.CutPrefix(base, "drive")
	if !ok || len(rest) < 4 || rest[3] != '_' {
		return sh, false
	}
	drive, err := strconv.Atoi(rest[:3])
	if err != nil {
		return sh, false
	}
	rest = rest[4:] // "<route>_<network>"
	var route, net string
	for _, id := range networks {
		if r, ok := strings.CutSuffix(rest, "_"+id); ok && len(id) > len(net) {
			route, net = r, id
		}
	}
	if net == "" {
		i := strings.LastIndexByte(rest, '_')
		if i <= 0 || i == len(rest)-1 {
			return sh, false
		}
		route, net = rest[:i], rest[i+1:]
	}
	sh.Name = name
	sh.Drive = drive
	sh.Route = route
	sh.Network = channel.NetworkID(net)
	return sh, true
}

// ListTraceShards enumerates the manifest's trace shards in export
// order: drive-major, networks in campaign order within a drive (name
// order for manifests predating Campaign). Non-shard files (tests.csv)
// are skipped; a name that looks like a shard but does not parse is an
// error, since silently dropping it would understate the campaign.
func ListTraceShards(m *Manifest) ([]TraceShard, error) {
	var networks []string
	if m.Campaign != nil {
		networks = m.Campaign.Networks
	}
	netOrder := make(map[channel.NetworkID]int, len(networks))
	for i, id := range networks {
		netOrder[channel.NetworkID(id)] = i
	}
	shards := make([]TraceShard, 0, len(m.Files))
	for name, fi := range m.Files {
		if !strings.HasPrefix(name, "drive") || !strings.HasSuffix(name, ".csv") {
			continue
		}
		sh, ok := ParseShardName(name, networks)
		if !ok {
			return nil, fmt.Errorf("store: unparseable shard name %q in %s", name, ManifestName)
		}
		sh.Rows = fi.Rows
		shards = append(shards, sh)
	}
	sort.Slice(shards, func(i, j int) bool {
		a, b := shards[i], shards[j]
		if a.Drive != b.Drive {
			return a.Drive < b.Drive
		}
		ai, aok := netOrder[a.Network]
		bi, bok := netOrder[b.Network]
		if aok && bok && ai != bi {
			return ai < bi
		}
		if aok != bok {
			return aok // campaign networks before strangers
		}
		return a.Name < b.Name
	})
	return shards, nil
}
