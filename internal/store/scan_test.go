package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"satcell/internal/channel"
	"satcell/internal/trace"
)

func TestParseShardName(t *testing.T) {
	nets := []string{"RM", "MOB", "my_net"}
	cases := []struct {
		name  string
		ok    bool
		drive int
		route string
		net   channel.NetworkID
	}{
		{"drive003_gary-chicago_RM.csv", true, 3, "gary-chicago", "RM"},
		{"drive000_a_b_MOB.csv", true, 0, "a_b", "MOB"},
		{"drive012_route_my_net.csv", true, 12, "route", "my_net"},
		{"drive001_r_XX.csv", true, 1, "r", "XX"}, // unknown net: last-underscore split
		{"tests.csv", false, 0, "", ""},
		{"drive1_r_RM.csv", false, 0, "", ""},
		{"drive001_RM.txt", false, 0, "", ""},
	}
	for _, c := range cases {
		sh, ok := ParseShardName(c.name, nets)
		if ok != c.ok {
			t.Errorf("%s: ok=%v, want %v", c.name, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if sh.Drive != c.drive || sh.Route != c.route || sh.Network != c.net {
			t.Errorf("%s: parsed %+v", c.name, sh)
		}
	}
}

// TestParseShardNameInvertsShardName round-trips every (drive, route,
// network) combination through the writer-side name builder.
func TestParseShardNameInvertsShardName(t *testing.T) {
	for _, n := range channel.Networks {
		name := ShardName(41, "stpaul-minneapolis", n)
		sh, ok := ParseShardName(name, nil)
		if !ok || sh.Drive != 41 || sh.Route != "stpaul-minneapolis" || sh.Network != n {
			t.Fatalf("%s: parsed %+v ok=%v", name, sh, ok)
		}
	}
}

func TestListTraceShardsExportOrder(t *testing.T) {
	dir := exportClean(t)
	m, err := ReadManifestFS(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Campaign == nil {
		t.Fatal("export wrote no campaign info")
	}
	ds := testDataset()
	if m.Campaign.Drives != len(ds.Drives) || m.Campaign.Km != ds.TotalKm {
		t.Fatalf("campaign info %+v disagrees with dataset (%d drives, %g km)",
			m.Campaign, len(ds.Drives), ds.TotalKm)
	}
	shards, err := ListTraceShards(m)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(ds.Drives) * len(channel.Networks); len(shards) != want {
		t.Fatalf("%d shards, want %d", len(shards), want)
	}
	for i, sh := range shards {
		wantDrive, wantNet := i/len(channel.Networks), channel.Networks[i%len(channel.Networks)]
		if sh.Drive != wantDrive || sh.Network != wantNet {
			t.Fatalf("shard %d is drive %d net %s, want drive %d net %s",
				i, sh.Drive, sh.Network, wantDrive, wantNet)
		}
		if sh.Name != ShardName(sh.Drive, sh.Route, sh.Network) {
			t.Fatalf("shard %d name %q does not rebuild from parts", i, sh.Name)
		}
	}
}

func TestScanTestsMatchesLoadTests(t *testing.T) {
	dir := exportClean(t)
	path := filepath.Join(dir, "tests.csv")
	rows, _, err := LoadTestsFS(nil, path, Strict)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []TestRow
	rep := &LoadReport{}
	if err := ScanTestsFS(nil, path, Strict, rep, func(row TestRow) error {
		streamed = append(streamed, row)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(rows) || rep.Rows != len(rows) {
		t.Fatalf("streamed %d rows (report %d), loader saw %d", len(streamed), rep.Rows, len(rows))
	}
	for i := range rows {
		if rows[i] != streamed[i] {
			t.Fatalf("row %d differs:\n load %+v\n scan %+v", i, rows[i], streamed[i])
		}
		if streamed[i].Drive < 0 {
			t.Fatalf("row %d: drive column missing from fresh export", i)
		}
	}
}

func TestScanTestsConsumerErrorAborts(t *testing.T) {
	dir := exportClean(t)
	boom := errors.New("boom")
	calls := 0
	err := ScanTestsFS(nil, filepath.Join(dir, "tests.csv"), Lenient, &LoadReport{}, func(TestRow) error {
		if calls++; calls == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || calls != 3 {
		t.Fatalf("err=%v after %d calls, want boom after 3", err, calls)
	}
}

func TestScanTraceMatchesLoadTrace(t *testing.T) {
	dir := exportClean(t)
	ds := testDataset()
	sh, ok := ParseShardName(ShardName(0, ds.Drives[0].Route, channel.Networks[0]), nil)
	if !ok {
		t.Fatal("canonical shard name failed to parse")
	}
	path := filepath.Join(dir, sh.Name)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ReadCSV(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	var recs []channel.Record
	rep := &LoadReport{}
	if err := ScanTraceFS(nil, path, Strict, rep, func(n channel.NetworkID, r channel.Record) error {
		if n != sh.Network {
			t.Fatalf("record network %s, shard says %s", n, sh.Network)
		}
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(tr.Samples) || rep.Rows != len(recs) {
		t.Fatalf("scanned %d records (report %d), loader saw %d samples",
			len(recs), rep.Rows, len(tr.Samples))
	}
	for i := range recs {
		if recs[i].Sample != tr.Samples[i] {
			t.Fatalf("record %d sample differs", i)
		}
		if recs[i].Env.Area.String() == "unknown" {
			t.Fatalf("record %d: extended layout lost the area column", i)
		}
	}
}

func TestScanTraceConsumerErrorAborts(t *testing.T) {
	dir := exportClean(t)
	ds := testDataset()
	path := filepath.Join(dir, ShardName(0, ds.Drives[0].Route, channel.Networks[0]))
	boom := errors.New("boom")
	calls := 0
	err := ScanTraceFS(nil, path, Lenient, &LoadReport{}, func(channel.NetworkID, channel.Record) error {
		if calls++; calls == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || calls != 5 {
		t.Fatalf("err=%v after %d calls, want boom after 5", err, calls)
	}
}

// TestExportedShardRoundTripsEnv locks the writer/reader pair: the
// extended trace layout written by the export preserves every record's
// environment, so a directory scan can rebuild figure inputs that need
// area, speed or burst state.
func TestExportedShardRoundTripsEnv(t *testing.T) {
	dir := exportClean(t)
	ds := testDataset()
	n := channel.Networks[1]
	di := len(ds.Drives) - 1
	want := ds.Drives[di].Observed[n]
	var got []channel.Record
	rep := &LoadReport{}
	path := filepath.Join(dir, ShardName(di, ds.Drives[di].Route, n))
	if err := ScanTraceFS(nil, path, Strict, rep, func(_ channel.NetworkID, r channel.Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scanned %d records, drive holds %d", len(got), len(want))
	}
	for i := range got {
		w := want[i]
		g := got[i]
		if g.Env.Area != w.Env.Area || g.Sample.Burst != w.Sample.Burst ||
			g.Env.At != w.Env.At || g.Sample.At != w.Sample.At {
			t.Fatalf("record %d: got area=%v burst=%v at=%v, want area=%v burst=%v at=%v",
				i, g.Env.Area, g.Sample.Burst, g.Env.At, w.Env.Area, w.Sample.Burst, w.Env.At)
		}
	}
}
