package store

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Artifact-directory control files. MANIFEST is written last, after
// every shard: its presence certifies a complete campaign. CHECKPOINT
// exists only while an export is in flight (or after a crash); it is
// the shard journal a resumed export verifies against.
const (
	ManifestName   = "MANIFEST"
	CheckpointName = "CHECKPOINT"
)

// SchemaVersion is the manifest/checkpoint schema this build writes.
// Readers accept any version up to it and refuse newer ones.
const SchemaVersion = 1

// FileInfo records the identity of one artifact file.
type FileInfo struct {
	SHA256 string `json:"sha256"`
	Bytes  int64  `json:"bytes"`
	// Rows counts the file's data rows (trace samples, tests) excluding
	// the header, so FsckFS can cross-check content against identity.
	Rows int `json:"rows"`
}

// CampaignInfo records campaign-level totals that cannot be recovered
// from the artifact rows alone (distance covers gaps between test
// windows; drives without tests still count). The streaming analyzer
// reads it to reproduce the dataset-summary bookkeeping figure from a
// directory scan.
type CampaignInfo struct {
	Km       float64  `json:"km"`
	TestMin  float64  `json:"test_min"`
	Drives   int      `json:"drives"`
	States   int      `json:"states"`
	Networks []string `json:"networks,omitempty"`
	// Quarantined itemises drives the degrading generator gave up on
	// (one rendered dataset.DriveFailure per line): their shards are
	// deliberately absent, and completeness certificates downstream
	// carry the records forward instead of calling the export torn.
	Quarantined []string `json:"quarantined,omitempty"`
}

// Manifest describes one complete artifact directory.
type Manifest struct {
	Schema int     `json:"schema"`
	Tool   string  `json:"tool"`
	Seed   int64   `json:"seed"`
	Scale  float64 `json:"scale"`
	// Campaign holds dataset-level provenance totals; nil for figure
	// directories and for artifacts written before the field existed.
	Campaign *CampaignInfo       `json:"campaign,omitempty"`
	Files    map[string]FileInfo `json:"files"`
}

// NewManifest starts an empty manifest for the given provenance.
func NewManifest(tool string, seed int64, scale float64) *Manifest {
	return &Manifest{Schema: SchemaVersion, Tool: tool, Seed: seed, Scale: scale,
		Files: make(map[string]FileInfo)}
}

// Add records one artifact file.
func (m *Manifest) Add(name string, fi FileInfo) { m.Files[name] = fi }

// WriteFS persists the manifest atomically into dir through fsys (nil
// means the real filesystem). Callers must write it last: its arrival
// is what marks the directory complete.
func (m *Manifest) WriteFS(fsys FS, dir string) error {
	return WriteFileAtomicFS(fsys, filepath.Join(dir, ManifestName), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
}

// ReadManifestFS loads and validates dir's MANIFEST through fsys (nil
// means the real filesystem).
func ReadManifestFS(fsys FS, dir string) (*Manifest, error) {
	f, err := orOS(fsys).Open(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("store: read %s: %w", ManifestName, err)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("store: parse %s: %w", ManifestName, err)
	}
	if m.Schema < 1 || m.Schema > SchemaVersion {
		return nil, fmt.Errorf("store: %s schema %d not supported (this build reads <= %d)",
			ManifestName, m.Schema, SchemaVersion)
	}
	for name := range m.Files {
		if !safeArtifactName(name) {
			return nil, fmt.Errorf("store: %s lists unsafe file name %q", ManifestName, name)
		}
	}
	return &m, nil
}

// safeArtifactName rejects manifest entries that could escape the
// dataset directory (path separators, "..", control files).
func safeArtifactName(name string) bool {
	if name == "" || name == ManifestName || name == CheckpointName {
		return false
	}
	if strings.ContainsAny(name, `/\`) || name == "." || name == ".." {
		return false
	}
	return filepath.Base(name) == name
}

// VerifyFileFS checks one manifest entry against the file in fsys (nil
// means the real filesystem), distinguishing missing, truncated/resized
// and bit-corrupted files.
func (m *Manifest) VerifyFileFS(fsys FS, dir, name string) error {
	fi, ok := m.Files[name]
	if !ok {
		return fmt.Errorf("store: %s not in manifest", name)
	}
	sum, size, err := hashFile(fsys, filepath.Join(dir, name))
	if os.IsNotExist(err) {
		return fmt.Errorf("store: %s missing", name)
	}
	if err != nil {
		return err
	}
	if size != fi.Bytes {
		return fmt.Errorf("store: %s is %d bytes, manifest says %d (truncated or resized)",
			name, size, fi.Bytes)
	}
	if sum != fi.SHA256 {
		return fmt.Errorf("store: %s checksum mismatch (bit corruption)", name)
	}
	return nil
}
