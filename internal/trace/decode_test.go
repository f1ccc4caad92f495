package trace

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"satcell/internal/channel"
	"satcell/internal/dataset"
)

// exportShard is one trace shard of a generated campaign, written as
// the store writes it.
type exportShard struct {
	name string
	data []byte
	rows int
}

var (
	seedExportOnce sync.Once
	seedExportData []exportShard
)

// seedExport returns every trace shard of the seed-42 scale-0.05
// campaign in WriteRecordsCSV's extended layout, one per drive and
// network, generated once per test binary.
func seedExport(tb testing.TB) []exportShard {
	tb.Helper()
	seedExportOnce.Do(func() {
		ds := dataset.Generate(dataset.Config{Seed: 42, Scale: 0.05})
		for di := range ds.Drives {
			d := &ds.Drives[di]
			for _, n := range ds.MeasuredNetworks() {
				var buf bytes.Buffer
				if err := WriteRecordsCSV(&buf, n, d.Observed[n]); err != nil {
					panic(err)
				}
				seedExportData = append(seedExportData, exportShard{
					name: d.Route + "/" + n.String(), data: buf.Bytes(), rows: len(d.Observed[n]),
				})
			}
		}
	})
	if len(seedExportData) == 0 {
		tb.Fatal("the seed-42 scale-0.05 campaign has no shards")
	}
	return seedExportData
}

// scanEvent is what a scan reports about one line: a row's network and
// record, or a lenient skip's line and error.
type scanEvent struct {
	n    channel.NetworkID
	rec  channel.Record
	line int
	err  string
}

// oneNetwork is the row callback of both scans: like ReadCSV's, it
// fails a row whose network differs from the first row's.
func oneNetwork(first *channel.NetworkID, n channel.NetworkID) error {
	if *first == channel.NetworkInvalid {
		*first = n
	}
	if n != *first {
		return fmt.Errorf("network changed mid-trace: %v then %v", *first, n)
	}
	return nil
}

// refScan is the scan without the one-pass decoder: every line goes
// through Records.Read and parseRecord.
func refScan(data []byte, lenient bool) ([]scanEvent, error) {
	cr := NewRecords(bytes.NewReader(data))
	wantFields, err := readHeader(cr)
	if err != nil {
		return nil, err
	}
	var p rowParser
	var events []scanEvent
	first, bad := channel.NetworkInvalid, 0
	for {
		rec, line, err := cr.Read()
		if err == io.EOF {
			return events, nil
		}
		if err == nil && blankRecord(rec) {
			continue
		}
		var row channel.Record
		var n channel.NetworkID
		if err == nil {
			row, n, err = p.parseRecord(rec, wantFields)
		}
		if err == nil {
			err = oneNetwork(&first, n)
		}
		if err == nil {
			events, bad = append(events, scanEvent{n: n, rec: row}), 0
			continue
		}
		err = fmt.Errorf("trace: line %d: %w", line, err)
		if !lenient {
			return events, err
		}
		if bad++; bad > maxConsecutiveBadRows {
			return events, fmt.Errorf("trace: giving up after %d consecutive malformed rows: %w", maxConsecutiveBadRows, err)
		}
		events = append(events, scanEvent{line: line, err: err.Error()})
	}
}

// scanEvents is ScanRecordsCSV's report of the same scan.
func scanEvents(data []byte, lenient bool) ([]scanEvent, error) {
	var events []scanEvent
	first := channel.NetworkInvalid
	err := ScanRecordsCSV(bytes.NewReader(data), lenient,
		func(line int, err error) { events = append(events, scanEvent{line: line, err: err.Error()}) },
		func(n channel.NetworkID, rec channel.Record) error {
			if err := oneNetwork(&first, n); err != nil {
				return err
			}
			events = append(events, scanEvent{n: n, rec: rec})
			return nil
		})
	return events, err
}

// sameScan fails unless the scan of data matches refScan, strict and
// lenient: every row's network and record, every skip's line and
// error, and the final error.
func sameScan(t *testing.T, name string, data []byte) {
	t.Helper()
	for _, lenient := range []bool{false, true} {
		got, err := scanEvents(data, lenient)
		want, werr := refScan(data, lenient)
		if !sameErr(err, werr) {
			t.Fatalf("%s (lenient %v): error %v, reference %v", name, lenient, err, werr)
		}
		if len(got) != len(want) {
			t.Fatalf("%s (lenient %v): %d rows and skips, reference %d", name, lenient, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s (lenient %v): event %d = %+v, reference %+v", name, lenient, i, got[i], want[i])
			}
		}
	}
}

// FuzzScanRecordsDecoder holds the scan, whose rows the one-pass
// decoder reads where it can, to refScan, which reads every row through
// Records.Read and parseRecord.
func FuzzScanRecordsDecoder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sameScan(t, "input", data)
	})
}

// TestScanRecordsDecoderExport decodes every shard of the seed-42
// scale-0.05 campaign both ways, and checks that the decoder itself
// finishes every one of its rows with parseRecord's record.
func TestScanRecordsDecoderExport(t *testing.T) {
	for _, s := range seedExport(t) {
		sameScan(t, s.name, s.data)
		cr := NewRecords(bytes.NewReader(s.data))
		wantFields, err := readHeader(cr)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		var p, ref rowParser
		var got channel.Record
		for rows := 0; ; rows++ {
			l, err := cr.nextLine()
			if err == io.EOF {
				if rows != s.rows {
					t.Fatalf("%s: %d rows, want %d", s.name, rows, s.rows)
				}
				break
			}
			n, ok := p.decode(l, wantFields > len(csvHeader)+1, &got)
			if err != nil || !ok {
				t.Fatalf("%s: row %d %q not decoded (read error %v)", s.name, rows, l, err)
			}
			fields, _, _ := cr.split(l, nil)
			want, wn, werr := ref.parseRecord(fields, wantFields)
			if werr != nil || wn != n || got != want {
				t.Fatalf("%s: row %d decodes to %v %+v, parseRecord %v %+v %v", s.name, rows, n, got, wn, want, werr)
			}
		}
	}
}

// BenchmarkScanRecords is the scan layer's probe: one op scans every
// shard of the seed-42 scale-0.05 campaign from memory, through the
// reader under store.ScanTraceFS, fsck and the streaming analysis.
func BenchmarkScanRecords(b *testing.B) {
	shards := seedExport(b)
	size, want := 0, 0
	for _, s := range shards {
		size += len(s.data)
		want += s.rows
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	rows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range shards {
			err := ScanRecordsCSV(bytes.NewReader(s.data), false, nil,
				func(channel.NetworkID, channel.Record) error { rows++; return nil })
			if err != nil {
				b.Fatalf("%s: %v", s.name, err)
			}
		}
	}
	if rows != want*b.N {
		b.Fatalf("scanned %d rows, want %d", rows, want*b.N)
	}
	b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
}
