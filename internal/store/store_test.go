package store

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"satcell/internal/dataset"
)

// testDataset generates the shared small campaign once; every suite
// reads it, none mutates it.
var testDataset = sync.OnceValue(func() *dataset.Dataset {
	return dataset.Generate(dataset.Config{Seed: 7, Scale: 0.02})
})

// exportOpts are the matching provenance options for testDataset.
func exportOpts() ExportOptions { return ExportOptions{Seed: 7, Scale: 0.02} }

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

func listTempFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var tmps []string
	for _, e := range entries {
		if IsTempFile(e.Name()) {
			tmps = append(tmps, e.Name())
		}
	}
	return tmps
}

func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.txt")
	if err := WriteFileAtomicFS(nil, path, writeString("one")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomicFS(nil, path, writeString("two")); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "two" {
		t.Fatalf("read %q, %v", b, err)
	}
	if tmps := listTempFiles(t, dir); len(tmps) != 0 {
		t.Fatalf("leftover temp files: %v", tmps)
	}
}

func TestWriteFileAtomicKeepsOldOnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.txt")
	if err := WriteFileAtomicFS(nil, path, writeString("good")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	err := WriteFileAtomicFS(nil, path, func(w io.Writer) error {
		io.WriteString(w, "partial garbage")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want wrapped write error, got %v", err)
	}
	b, _ := os.ReadFile(path)
	if string(b) != "good" {
		t.Fatalf("failed write clobbered the old file: %q", b)
	}
	if tmps := listTempFiles(t, dir); len(tmps) != 0 {
		t.Fatalf("leftover temp files after aborted write: %v", tmps)
	}
}

func TestManifestRoundTripAndVerify(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard.csv")
	if err := WriteFileAtomicFS(nil, path, writeString("hdr\n1,2\n")); err != nil {
		t.Fatal(err)
	}
	sum, size, err := hashFile(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManifest(DatasetTool, 7, 0.02)
	m.Add("shard.csv", FileInfo{SHA256: sum, Bytes: size, Rows: 1})
	if err := m.WriteFS(nil, dir); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifestFS(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != SchemaVersion || got.Seed != 7 || got.Scale != 0.02 ||
		got.Files["shard.csv"] != m.Files["shard.csv"] {
		t.Fatalf("manifest round trip mangled: %+v", got)
	}
	if err := got.VerifyFileFS(nil, dir, "shard.csv"); err != nil {
		t.Fatalf("intact file should verify: %v", err)
	}
	if err := os.WriteFile(path, []byte("hdr\n9,9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := got.VerifyFileFS(nil, dir, "shard.csv"); err == nil {
		t.Fatal("modified file should fail verification")
	}
	if err := got.VerifyFileFS(nil, dir, "ghost.csv"); err == nil {
		t.Fatal("unlisted file should fail verification")
	}
}

func TestReadManifestRejectsUnsafeNamesAndNewSchema(t *testing.T) {
	dir := t.TempDir()
	evil := `{"schema":1,"tool":"drivegen","seed":1,"scale":1,"files":{"../escape.csv":{"sha256":"x","bytes":1,"rows":1}}}`
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(evil), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifestFS(nil, dir); err == nil || !strings.Contains(err.Error(), "unsafe") {
		t.Fatalf("path-escaping manifest entry should be rejected, got %v", err)
	}
	future := `{"schema":99,"tool":"drivegen","seed":1,"scale":1,"files":{}}`
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(future), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifestFS(nil, dir); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("future schema should be rejected, got %v", err)
	}
}

func TestDigestDirDetectsAnyChange(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{"a": "1", "b": "2"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before, err := DigestDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := DigestDir(dir)
	if again != before {
		t.Fatal("digest not stable")
	}
	os.WriteFile(filepath.Join(dir, "b"), []byte("3"), 0o644)
	after, _ := DigestDir(dir)
	if after == before {
		t.Fatal("content change not reflected in digest")
	}
}
