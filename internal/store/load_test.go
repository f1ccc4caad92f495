package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"satcell/internal/channel"
)

func TestLoadTestsStrictRoundTrip(t *testing.T) {
	dir := exportClean(t)
	ds := testDataset()
	rows, rep, err := LoadTestsFS(nil, filepath.Join(dir, "tests.csv"), Strict)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ds.Tests) || rep.Skipped != 0 || rep.Rows != len(ds.Tests) {
		t.Fatalf("loaded %d rows (%s), want %d", len(rows), rep, len(ds.Tests))
	}
	for i := range ds.Tests {
		want := &ds.Tests[i]
		got := rows[i]
		if got.ID != want.ID || got.Network != want.Network.String() ||
			got.Kind != want.Kind.String() || got.Area != want.Area.String() ||
			got.Outcome != want.Outcome.String() {
			t.Fatalf("row %d mismatch: %+v vs %+v", i, got, want)
		}
	}
}

func TestLoadTestsLenientSkipsAndCounts(t *testing.T) {
	dir := exportClean(t)
	path := filepath.Join(dir, "tests.csv")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) < 8 {
		t.Fatalf("campaign too small for the corruption plan: %d lines", len(lines))
	}
	total := len(lines) - 1
	// Inject four classes of malformed rows plus harmless blank noise.
	fields := strings.Split(lines[1], ",")
	fields[9] = "not-a-number"
	lines[1] = strings.Join(fields, ",") // bad throughput_mbps
	lines[3] = "short,row"               // wrong field count
	fields = strings.Split(lines[5], ",")
	fields[12] = "exploded"
	lines[5] = strings.Join(fields, ",") // unknown outcome
	fields = strings.Split(lines[7], ",")
	fields[0] = "id?"
	lines[7] = strings.Join(fields, ",") // bad id
	mangled := strings.Join(lines, "\r\n") + "\r\n\n   \n"
	if err := os.WriteFile(path, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}

	rows, rep, err := LoadTestsFS(nil, path, Lenient)
	if err != nil {
		t.Fatalf("lenient load aborted: %v", err)
	}
	const injected = 4
	if rep.Skipped != injected {
		t.Fatalf("skip count %d, want %d (report: %s, errors: %v)",
			rep.Skipped, injected, rep, rep.Errors)
	}
	if len(rows) != total-injected || rep.Rows != len(rows) {
		t.Fatalf("kept %d rows, want %d", len(rows), total-injected)
	}
	if len(rep.Errors) != injected {
		t.Fatalf("itemised %d errors, want %d", len(rep.Errors), injected)
	}
	for _, re := range rep.Errors {
		if re.Line == 0 || re.Err == "" {
			t.Fatalf("error without location: %+v", re)
		}
	}
	if _, _, err := LoadTestsFS(nil, path, Strict); err == nil {
		t.Fatal("strict load of a corrupted tests.csv must fail")
	}
}

func TestReadTestsStructuralErrors(t *testing.T) {
	rep := &LoadReport{}
	if _, err := ReadTests(strings.NewReader(""), "x.csv", Lenient, rep); err == nil {
		t.Fatal("empty tests file must fail even in lenient mode")
	}
	if _, err := ReadTests(strings.NewReader("id,network,kind\n"), "x.csv", Lenient, rep); err == nil {
		t.Fatal("missing required columns must fail even in lenient mode")
	}
}

func TestReadTestsOptionalColumns(t *testing.T) {
	// A minimal pre-outcome artifact: only the required columns.
	in := "network,kind,area,throughput_mbps,loss_rate,retrans_rate\n" +
		"MOB,udp-down,urban,93.50,0.01,0\n"
	rep := &LoadReport{}
	rows, err := ReadTests(strings.NewReader(in), "old.csv", Strict, rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].ThroughputMbps != 93.5 || rows[0].Outcome != "complete" {
		t.Fatalf("optional-column row mangled: %+v", rows)
	}
}

func TestLoadTraceLenient(t *testing.T) {
	dir := exportClean(t)
	m, err := ReadManifestFS(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	var shardName string
	for name := range m.Files {
		if name != "tests.csv" {
			shardName = name
			break
		}
	}
	path := filepath.Join(dir, shardName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	total := len(lines) - 1
	lines[2] = "garbage line that is not csv-ish,at all"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	rep := &LoadReport{}
	samples := 0
	count := func(channel.NetworkID, channel.Record) error { samples++; return nil }
	if err := ScanTraceFS(nil, path, Lenient, rep, count); err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 1 || samples != total-1 || rep.Rows != total-1 {
		t.Fatalf("lenient trace load: %s, %d samples, want %d", rep, samples, total-1)
	}
	if err := ScanTraceFS(nil, path, Strict, &LoadReport{}, count); err == nil {
		t.Fatal("strict trace load of a corrupted shard must fail")
	}
}
