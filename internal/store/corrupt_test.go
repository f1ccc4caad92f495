package store

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"satcell/internal/channel"
)

// corruptionRNG seeds every corruption draw so the suite replays
// identically, in the style of internal/faults.
const corruptionSeed = 1

// shardNames returns the manifest's artifact names in sorted order.
func shardNames(t *testing.T, dir string) []string {
	t.Helper()
	m, err := ReadManifestFS(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(m.Files))
	for name := range m.Files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// truncateFile chops n bytes off the end of path.
func truncateFile(t *testing.T, path string, n int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-n); err != nil {
		t.Fatal(err)
	}
}

// flipBit flips one random bit of one random byte of path.
func flipBit(t *testing.T, path string, rng *rand.Rand) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := rng.Intn(len(b))
	b[i] ^= 1 << uint(rng.Intn(8))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// tearRename simulates a crash between temp write and rename: a stale
// atomic-write temp file left in the directory.
func tearRename(t *testing.T, dir string) string {
	t.Helper()
	name := tmpPrefix + "shard.csv-12345"
	if err := os.WriteFile(filepath.Join(dir, name), []byte("half a shard"), 0o644); err != nil {
		t.Fatal(err)
	}
	return name
}

// problemFor returns the findings mentioning file.
func problemsFor(rep *FsckReport, file string) []Problem {
	var out []Problem
	for _, p := range rep.Problems {
		if p.File == file {
			out = append(out, p)
		}
	}
	return out
}

// TestFsckDetectsSeededCorruption seeds one instance of every
// corruption class into a verified export and checks each is flagged
// with a finding naming the damaged file.
func TestFsckDetectsSeededCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(corruptionSeed))
	dir := exportClean(t)
	names := shardNames(t, dir)
	truncated, flipped := names[0], names[1]

	truncateFile(t, filepath.Join(dir, truncated), 1+int64(rng.Intn(64)))
	flipBit(t, filepath.Join(dir, flipped), rng)
	torn := tearRename(t, dir)
	unknown := "stray.csv"
	if err := os.WriteFile(filepath.Join(dir, unknown), []byte("x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := names[2]
	if err := os.Remove(filepath.Join(dir, missing)); err != nil {
		t.Fatal(err)
	}

	rep, err := FsckFS(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("fsck passed a corrupted directory")
	}
	for file, wantWord := range map[string]string{
		truncated: "bytes",
		flipped:   "checksum",
		torn:      "torn",
		unknown:   "unknown",
		missing:   "missing",
	} {
		probs := problemsFor(rep, file)
		if len(probs) == 0 {
			t.Fatalf("no finding for %s (want %q); report:\n%s", file, wantWord, rep)
		}
		if !strings.Contains(strings.ToLower(probs[0].Desc), wantWord) {
			t.Fatalf("finding for %s = %q, want mention of %q", file, probs[0].Desc, wantWord)
		}
	}
	if got := len(rep.Problems); got != 5 {
		t.Fatalf("found %d problems, want exactly 5:\n%s", got, rep)
	}
}

// TestResumeRepairsSeededCorruption corrupts a complete export three
// ways and proves a resumed export regenerates exactly the damaged
// shards, restoring the golden directory digest.
func TestResumeRepairsSeededCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(corruptionSeed))
	dir := exportClean(t)
	golden, err := DigestDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := shardNames(t, dir)

	truncateFile(t, filepath.Join(dir, names[0]), 1+int64(rng.Intn(64)))
	flipBit(t, filepath.Join(dir, names[1]), rng)
	tearRename(t, dir)
	if err := os.Remove(filepath.Join(dir, names[2])); err != nil {
		t.Fatal(err)
	}

	opts := exportOpts()
	opts.Resume = true
	stats, err := ExportDatasetContext(context.Background(), dir, testDataset(), opts)
	if err != nil {
		t.Fatalf("repair resume: %v", err)
	}
	if stats.Written != 3 {
		t.Fatalf("repair rewrote %d shards, want exactly the 3 damaged ones", stats.Written)
	}
	if stats.Reused != len(names)-3 {
		t.Fatalf("repair reused %d shards, want %d", stats.Reused, len(names)-3)
	}
	got, err := DigestDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got != golden {
		t.Fatalf("repaired digest %s != golden %s", got, golden)
	}
	rep, err := FsckFS(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("repaired directory fails fsck:\n%s", rep)
	}
}

// rewriteManifested rewrites the lines of one artifact through edit and
// re-manifests it, so only fsck's content checks can object.
func rewriteManifested(t *testing.T, dir, name string, edit func(lines []string)) {
	t.Helper()
	path := filepath.Join(dir, name)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	edit(lines)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifestFS(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	sum, size, err := hashFile(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	fi := m.Files[name]
	fi.SHA256, fi.Bytes = sum, size
	m.Files[name] = fi
	if err := m.WriteFS(nil, dir); err != nil {
		t.Fatal(err)
	}
}

// traceShards returns the manifest's trace shard names in sorted order.
func traceShards(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	for _, n := range shardNames(t, dir) {
		if n != "tests.csv" {
			out = append(out, n)
		}
	}
	return out
}

// swapSamples puts two data rows of a trace out of order.
func swapSamples(lines []string) { lines[2], lines[3] = lines[3], lines[2] }

// TestFsckFlagsNonMonotonicTimestamps exercises the content-level check
// that checksums alone cannot: a shard whose manifest entry was
// regenerated around out-of-order timestamps (a writer bug, not disk
// corruption).
func TestFsckFlagsNonMonotonicTimestamps(t *testing.T) {
	dir := exportClean(t)
	shardName := traceShards(t, dir)[0]
	rewriteManifested(t, dir, shardName, swapSamples)

	rep, err := FsckFS(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	probs := problemsFor(rep, shardName)
	if len(probs) == 0 || !strings.Contains(probs[0].Desc, "timestamps") {
		t.Fatalf("non-monotonic timestamps not flagged:\n%s", rep)
	}
}

// switchNetwork rewrites the network column of one data row to another
// catalog network, so the shard changes network mid-file.
func switchNetwork(lines []string) {
	net, rest, _ := strings.Cut(lines[5], ",")
	for _, n := range channel.Networks {
		if n.String() != net {
			lines[5] = n.String() + "," + rest
			return
		}
	}
}

// TestFsckUnknownFilesInNameOrder pins the order of "unknown file"
// findings: by name, not by map iteration, so repeated audits of one
// directory print the same report.
func TestFsckUnknownFilesInNameOrder(t *testing.T) {
	dir := exportClean(t)
	for _, name := range []string{"zz-stray.csv", "aa-stray.csv"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		rep, err := FsckFS(nil, dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Problems) != 2 || rep.Problems[0].File != "aa-stray.csv" || rep.Problems[1].File != "zz-stray.csv" {
			t.Fatalf("audit %d: want aa-stray.csv then zz-stray.csv:\n%s", i, rep)
		}
	}
}

// TestFsckWorkerInvariant damages one directory several ways and
// requires the same report, naming every damaged file, whether fsck's
// files are checked on one core or four.
func TestFsckWorkerInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(corruptionSeed))
	dir := exportClean(t)
	shards := traceShards(t, dir)
	if len(shards) < 4 {
		t.Fatalf("test campaign has %d shards, want at least 4", len(shards))
	}
	truncated, flipped, disordered, switched := shards[0], shards[1], shards[2], shards[3]
	truncateFile(t, filepath.Join(dir, truncated), 1+int64(rng.Intn(64)))
	flipBit(t, filepath.Join(dir, flipped), rng)
	rewriteManifested(t, dir, disordered, swapSamples)
	rewriteManifested(t, dir, switched, switchNetwork)
	for _, name := range []string{"stray-b.csv", "stray-a.csv"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	reports := map[int]string{}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		rep, err := FsckFS(nil, dir)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		reports[procs] = rep.String()
		for file, wantWord := range map[string]string{
			truncated:     "bytes",
			flipped:       "checksum",
			disordered:    "timestamps",
			switched:      "network changed",
			"stray-a.csv": "unknown",
			"stray-b.csv": "unknown",
		} {
			probs := problemsFor(rep, file)
			if len(probs) != 1 || !strings.Contains(probs[0].Desc, wantWord) {
				t.Fatalf("GOMAXPROCS=%d: finding for %s = %v, want one mentioning %q:\n%s",
					procs, file, probs, wantWord, rep)
			}
		}
		if len(rep.Problems) != 6 {
			t.Fatalf("GOMAXPROCS=%d: %d problems, want 6:\n%s", procs, len(rep.Problems), rep)
		}
	}
	if reports[1] != reports[4] {
		t.Fatalf("report differs across core counts:\n--- GOMAXPROCS=1\n%s--- GOMAXPROCS=4\n%s",
			reports[1], reports[4])
	}
}
