package trace

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"satcell/internal/channel"
)

// csvOracle is the encoding/csv reader Records stands in for.
func csvOracle(r io.Reader) *csv.Reader {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.LazyQuotes = true
	return cr
}

// sameRecords reads got and want side by side and fails at the first
// record, start line or error on which they differ. It stops at EOF or
// after a few read errors, since an erroring source may keep erroring.
func sameRecords(t *testing.T, src string, got *Records, want *csv.Reader) {
	t.Helper()
	errs := 0
	for n := 0; ; n++ {
		fields, line, err := got.Read()
		rec, werr := want.Read()
		if err != werr {
			t.Fatalf("%s: record %d: error %v, encoding/csv %v", src, n, err, werr)
		}
		if err == io.EOF {
			return
		}
		if len(fields) != len(rec) {
			t.Fatalf("%s: record %d: %d fields %q, encoding/csv %d %q", src, n, len(fields), fields, len(rec), rec)
		}
		for i := range rec {
			if string(fields[i]) != rec[i] {
				t.Fatalf("%s: record %d field %d = %q, encoding/csv %q", src, n, i, fields[i], rec[i])
			}
		}
		if err != nil {
			if line != 0 {
				t.Fatalf("%s: record %d: line %d with error %v", src, n, line, err)
			}
			if errs++; errs == 3 {
				return
			}
			continue
		}
		if wline, _ := want.FieldPos(0); line != wline {
			t.Fatalf("%s: record %d starts on line %d, encoding/csv %d", src, n, line, wline)
		}
	}
}

var errBoom = errors.New("boom")

// FuzzRecordReader holds Records to encoding/csv: the same fields, start
// lines, errors and EOF, read whole, through a 16-byte bufio.Reader whose
// lines are joined over bufio.ErrBufferFull, cut by a read error after
// cut bytes, and one byte at a time with a timeout on the second read.
func FuzzRecordReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		sameRecords(t, "whole", NewRecords(bytes.NewReader(data)),
			csvOracle(stripBOM(bytes.NewReader(data))))
		sameRecords(t, "16-byte buffer", &Records{br: bufio.NewReaderSize(bytes.NewReader(data), 16)},
			csvOracle(bytes.NewReader(data)))
		k := int(cut)
		if k > len(data) {
			k = len(data)
		}
		failing := func() io.Reader {
			return io.MultiReader(bytes.NewReader(data[:k]), iotest.ErrReader(errBoom))
		}
		sameRecords(t, "read error", NewRecords(failing()), csvOracle(stripBOM(failing())))
		// No BOM peek here: it would take the timeout itself.
		timeout := func() io.Reader {
			return iotest.TimeoutReader(iotest.OneByteReader(bytes.NewReader(data)))
		}
		sameRecords(t, "timeout", &Records{br: bufio.NewReader(timeout())}, csvOracle(timeout()))
	})
}

// refFinite is the numeric column parser the fast paths stand in for.
func refFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = errNotFinite
	}
	return v, err
}

// sameErr reports whether two errors are both nil or read the same.
func sameErr(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// fixedWhole is parseFixed of a whole column: ok only if it takes all
// of s.
func fixedWhole(s string) (float64, bool) {
	v, n, ok := parseFixed([]byte(s))
	return v, ok && n == len(s)
}

// checkColumn fails unless s parses as the strconv paths parse it:
// parseFixed, when it takes s, bit for bit like strconv.ParseFloat, and
// as the same number when s is the prefix of a line that goes on after
// a comma; and parseFinite, parseInt and parseBool with the same value
// and error.
func checkColumn(t *testing.T, s string) {
	t.Helper()
	want, werr := refFinite(s)
	v, ok := fixedWhole(s)
	if ok {
		pv, perr := strconv.ParseFloat(s, 64)
		if perr != nil || math.Float64bits(v) != math.Float64bits(pv) {
			t.Fatalf("parseFixed(%q) = %v [%#x], strconv %v [%#x] %v",
				s, v, math.Float64bits(v), pv, math.Float64bits(pv), perr)
		}
	}
	if pv, n, pok := parseFixed([]byte(s + ",1")); (pok && n == len(s)) != ok ||
		ok && math.Float64bits(pv) != math.Float64bits(v) {
		t.Fatalf("parseFixed(%q) = %v, %d, %v; the whole column %q gives %v, %v", s+",1", pv, n, pok, s, v, ok)
	}
	if v, err := parseFinite([]byte(s)); math.Float64bits(v) != math.Float64bits(want) || !sameErr(err, werr) {
		t.Fatalf("parseFinite(%q) = %v, %v; want %v, %v", s, v, err, want, werr)
	}
	wi, wierr := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if i, err := parseInt([]byte(s)); i != wi || !sameErr(err, wierr) {
		t.Fatalf("parseInt(%q) = %v, %v; want %v, %v", s, i, err, wi, wierr)
	}
	wb, wberr := strconv.ParseBool(strings.TrimSpace(s))
	if b, err := parseBool([]byte(s)); b != wb || !sameErr(err, wberr) {
		t.Fatalf("parseBool(%q) = %v, %v; want %v, %v", s, b, err, wb, wberr)
	}
}

func TestParseFixedMatchesStrconv(t *testing.T) {
	fast := []string{
		"0", "-0", "-0.000", ".5", "-.5", "1.", "007", "000123.4500", "0.000001",
		"123456789012345", "-99999999999999.9", "0.123456789012345", "2.675", "-91.25",
	}
	for _, s := range fast {
		if _, ok := fixedWhole(s); !ok {
			t.Errorf("parseFixed(%q) fell back", s)
		}
		checkColumn(t, s)
	}
	fallback := []string{
		"", "-", ".", "-.", "1..2", "--1", "1-", "1234567890123456", "0.0000000000000001",
		" 1.5", "1.5 ", "\t2", "+1.5", "+0", "1e3", "1E-3", "inf", "-Inf", "+Inf", "nan", "NaN",
		"0x1p-2", "1_000", "true", "FALSE", " true", "999999999999999999", "1000000000000000000",
		"9223372036854775807", "-9223372036854775808", "9223372036854775808",
		"000000000000000000001", "0.0000000000000000001",
	}
	for _, s := range fallback {
		if _, ok := fixedWhole(s); ok {
			t.Errorf("parseFixed(%q) took a form it must hand to strconv", s)
		}
		checkColumn(t, s)
	}
	// Every precision the writer uses, and a few more, of random values
	// over many magnitudes.
	rng := rand.New(rand.NewSource(1))
	for p := 0; p <= 8; p++ {
		for i := 0; i < 2000; i++ {
			x := (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(12)-3))
			s := string(appendFixed(nil, x, p))
			if _, ok := fixedWhole(s); !ok && len(strings.Trim(s, "-.")) <= 15 {
				t.Fatalf("parseFixed(%q) fell back", s)
			}
			checkColumn(t, s)
		}
	}
}

// FuzzParseFixed holds the numeric, integer and bool column parsers to
// strconv on arbitrary columns.
func FuzzParseFixed(f *testing.F) {
	for _, s := range []string{"-0.000", ".5", "1.", "123456789012345", "1234567890123456", "0042", "1e5", " 7", "inf", "true"} {
		f.Add(s)
	}
	// Digit runs of 7, 8, 9, 15, 16, 17 and 20 or more digits, before
	// and after a point.
	for _, s := range []string{"1234567", "12345678", "123456789", "-123456789012345", "1234567890123456",
		"12345678901234567", "12345678901234567890", "123456789012345678901234", ".1234567", ".12345678",
		"0.123456789", "1.23456789012345", "0.1234567890123456", "00000000000000000001"} {
		f.Add(s)
	}
	// The bytes just outside '0'..'9' ending a run.
	for _, s := range []string{"1234/5678901", "1234:5678901", "12345678/", "12345678:123"} {
		f.Add(s)
	}
	// A point at every offset of a ten-digit run.
	for i := 0; i <= 9; i++ {
		d := "1234567890"
		f.Add(d[:i] + "." + d[i:])
	}
	// A byte at or above 0x80 right after a digit, and a number that
	// ends at the buffer's last byte.
	for _, s := range []string{"1\x80", "1234567\xff", "12345678\xc3\xa9", "1.5\xe2\x82\xac", "-7\x80123456789", "-98765.4321"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkColumn(t, s)
	})
}

// TestScanRecordsAllocsFlat guards the scan path: scanning ten times the
// rows must not allocate more.
func TestScanRecordsAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		recs := reuseRecords(n)
		for i := range recs {
			recs[i].Sample.Serving = "sat-01" // one interned id
		}
		var buf bytes.Buffer
		if err := WriteRecordsCSV(&buf, channel.StarlinkMobility, recs); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			rows := 0
			err := ScanRecordsCSV(bytes.NewReader(buf.Bytes()), false, nil,
				func(channel.NetworkID, channel.Record) error { rows++; return nil })
			if err != nil || rows != n {
				t.Fatalf("scanned %d of %d rows: %v", rows, n, err)
			}
		})
	}
	small, large := allocs(1000), allocs(10000)
	if large > small {
		t.Fatalf("allocations grew from %v at 1k rows to %v at 10k", small, large)
	}
}
