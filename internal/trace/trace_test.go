package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"satcell/internal/channel"
	"satcell/internal/geo"
)

func sampleTrace(n channel.NetworkID, secs int, down float64) *channel.Trace {
	tr := &channel.Trace{Network: n}
	for i := 0; i < secs; i++ {
		tr.Samples = append(tr.Samples, channel.Sample{
			At:       time.Duration(i) * time.Second,
			DownMbps: down + float64(i),
			UpMbps:   down / 10,
			RTT:      55 * time.Millisecond,
			LossDown: 0.005,
			LossUp:   0.003,
			SignalDB: -85.5,
			Serving:  "SL-01-02",
			Outage:   i == 3,
		})
	}
	return tr
}

func TestCSVRoundTrip(t *testing.T) {
	tr := sampleTrace(channel.StarlinkMobility, 10, 100)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Network != tr.Network {
		t.Fatalf("network %v != %v", got.Network, tr.Network)
	}
	if len(got.Samples) != len(tr.Samples) {
		t.Fatalf("samples %d != %d", len(got.Samples), len(tr.Samples))
	}
	for i, s := range got.Samples {
		want := tr.Samples[i]
		if s.At != want.At || math.Abs(s.DownMbps-want.DownMbps) > 0.01 ||
			s.Serving != want.Serving || s.Outage != want.Outage {
			t.Fatalf("sample %d: %+v != %+v", i, s, want)
		}
		if s.RTT < want.RTT-time.Millisecond || s.RTT > want.RTT+time.Millisecond {
			t.Fatalf("sample %d rtt %v != %v", i, s.RTT, want.RTT)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Fatal("empty input should fail")
	}
	bad := "network,at_ms,down_mbps,up_mbps,rtt_ms,loss_down,loss_up,signal_db,serving,outage\nXX,0,1,1,1,0,0,0,x,false\n"
	if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
		t.Fatal("unknown network should fail")
	}
}

func TestMahimahiConversionPreservesRate(t *testing.T) {
	tr := &channel.Trace{Network: channel.StarlinkRoam}
	for i := 0; i < 20; i++ {
		tr.Samples = append(tr.Samples, channel.Sample{
			At:       time.Duration(i) * time.Second,
			DownMbps: 60,
			UpMbps:   6,
		})
	}
	var buf bytes.Buffer
	if err := WriteMahimahi(&buf, tr, false); err != nil {
		t.Fatal(err)
	}
	back, err := readMahimahi(&buf, channel.StarlinkRoam)
	if err != nil {
		t.Fatal(err)
	}
	// All full seconds should read back at ~60 Mbps.
	for _, s := range back.Samples[:19] {
		if math.Abs(s.DownMbps-60) > 1.5 {
			t.Fatalf("second %v rate %v, want ~60", s.At, s.DownMbps)
		}
	}
}

func TestMahimahiUplink(t *testing.T) {
	tr := sampleTrace(channel.StarlinkMobility, 5, 100)
	var down, up bytes.Buffer
	if err := WriteMahimahi(&down, tr, false); err != nil {
		t.Fatal(err)
	}
	if err := WriteMahimahi(&up, tr, true); err != nil {
		t.Fatal(err)
	}
	if down.Len() <= up.Len()*5 {
		t.Fatal("downlink trace should have ~10x the opportunities of the uplink")
	}
}

func TestMahimahiVariableRate(t *testing.T) {
	tr := &channel.Trace{Network: channel.ATT}
	rates := []float64{10, 100, 0, 50}
	for i, r := range rates {
		tr.Samples = append(tr.Samples, channel.Sample{
			At: time.Duration(i) * time.Second, DownMbps: r,
		})
	}
	var buf bytes.Buffer
	if err := WriteMahimahi(&buf, tr, false); err != nil {
		t.Fatal(err)
	}
	back, err := readMahimahi(&buf, channel.ATT)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range rates[:3] {
		if math.Abs(back.Samples[i].DownMbps-want) > 2 {
			t.Fatalf("second %d = %v, want %v", i, back.Samples[i].DownMbps, want)
		}
	}
}

func TestReadMahimahiBadLine(t *testing.T) {
	if _, err := readMahimahi(strings.NewReader("12\nxx\n"), channel.ATT); err == nil {
		t.Fatal("bad line should fail")
	}
}

func TestAlign(t *testing.T) {
	a := sampleTrace(channel.StarlinkMobility, 20, 100)
	b := sampleTrace(channel.Verizon, 12, 80)
	aligned := Align(a, b)
	if len(aligned) != 2 {
		t.Fatal("wrong count")
	}
	da, db := aligned[0].Duration(), aligned[1].Duration()
	if da != db {
		t.Fatalf("durations differ after align: %v vs %v", da, db)
	}
	if len(aligned[1].Samples) != 12 {
		t.Fatalf("shorter trace truncated: %d", len(aligned[1].Samples))
	}
	if Align() != nil {
		t.Fatal("empty align should be nil")
	}
}

func TestReadCSVEmptyAndHeaderOnly(t *testing.T) {
	_, err := ReadCSV(strings.NewReader(""))
	if err == nil || !strings.HasPrefix(err.Error(), "trace:") {
		t.Fatalf("empty input: want trace:-prefixed error, got %v", err)
	}
	header := "network,at_ms,down_mbps,up_mbps,rtt_ms,loss_down,loss_up,signal_db,serving,outage\n"
	tr, err := ReadCSV(strings.NewReader(header))
	if err != nil {
		t.Fatalf("header-only file should parse as an empty trace: %v", err)
	}
	if len(tr.Samples) != 0 {
		t.Fatalf("header-only file yielded %d samples", len(tr.Samples))
	}
}

func TestReadCSVCRLFBOMAndTrailingBlanks(t *testing.T) {
	tr := sampleTrace(channel.Verizon, 5, 40)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	// Re-save the file the way a spreadsheet tool would: BOM, CRLF line
	// endings, trailing blank and whitespace-only lines.
	mangled := "\xef\xbb\xbf" + strings.ReplaceAll(buf.String(), "\n", "\r\n") + "\r\n\n   \n"
	got, err := ReadCSV(strings.NewReader(mangled))
	if err != nil {
		t.Fatalf("CRLF/BOM/trailing-blank file should parse: %v", err)
	}
	if len(got.Samples) != 5 || got.Network != channel.Verizon {
		t.Fatalf("got %d samples network %v", len(got.Samples), got.Network)
	}
}

func TestReadCSVStrictNamesLine(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleTrace(channel.ATT, 3, 10)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	for _, c := range []struct{ row, want string }{
		{strings.Replace(lines[2], "ATT", "ATT,extra", 1), "line 3: 11 fields"},
		// 9.3e15 ms overflows a time.Duration; NaN is no RTT.
		{"ATT,9300000000000000,1,1,1,0,0,0,x,false", `line 3: bad at_ms "9300000000000000": out of range`},
		{"ATT,1000,1,1,NaN,0,0,0,x,false", `line 3: bad rtt "NaN": not finite`},
		{"ATT,1000,1,-Inf,1,0,0,0,x,false", `line 3: bad field 1 "-Inf": not finite`},
	} {
		in := append(append([]string{}, lines[:2]...), c.row)
		_, err := ReadCSV(strings.NewReader(strings.Join(in, "\n")))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("row %q: want error containing %q, got %v", c.row, c.want, err)
		}
	}
}

func TestReadCSVLenientSkipsAndCounts(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleTrace(channel.TMobile, 6, 30)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	lines[2] = "TM,notanumber,1,1,1,0,0,0,x,false"        // bad at_ms
	lines[4] = "short,row"                                // wrong field count
	lines[5] = strings.Replace(lines[5], "TM,", "VZ,", 1) // network change mid-trace
	lines = append(lines,
		"TM,9300000000000000,1,1,1,0,0,0,x,false", // at_ms overflows a time.Duration
		"TM,9000,1,1,NaN,0,0,0,x,false")           // non-finite RTT
	in := strings.Join(lines, "\n")

	// The lenient scan the store's loaders use skips each malformed row,
	// a row its callback rejects among them, and keeps the rest.
	var skipped []int
	kept := 0
	err := ScanRecordsCSV(strings.NewReader(in), true, func(line int, err error) {
		if !strings.HasPrefix(err.Error(), "trace:") {
			t.Errorf("skip error not trace:-prefixed: %v", err)
		}
		skipped = append(skipped, line)
	}, func(n channel.NetworkID, _ channel.Record) error {
		if n != channel.TMobile {
			return fmt.Errorf("network changed mid-trace: TM then %v", n)
		}
		kept++
		return nil
	})
	if err != nil {
		t.Fatalf("lenient read should not abort: %v", err)
	}
	if kept != 3 {
		t.Fatalf("kept %d samples, want 3", kept)
	}
	if fmt.Sprint(skipped) != "[3 5 6 8 9]" {
		t.Fatalf("skipped lines %v, want [3 5 6 8 9]", skipped)
	}
	if _, err := ReadCSV(strings.NewReader(in)); err == nil {
		t.Fatal("strict read of the same input should fail")
	}
}

// reuseRecords builds rows whose serving ids and values all differ, so
// a row that aliased the csv reader's reused record would show.
func reuseRecords(n int) []channel.Record {
	recs := make([]channel.Record, n)
	for i := range recs {
		s := channel.Sample{
			At:       time.Duration(i) * time.Second,
			DownMbps: float64(100 + i),
			UpMbps:   float64(i) / 4,
			RTT:      time.Duration(40+i) * time.Millisecond,
			Serving:  fmt.Sprintf("sat-%03d", i),
			Outage:   i%3 == 0,
			Burst:    i%2 == 0,
		}
		if i == 2 {
			s.Serving = "cell,\"2\"\nsplit" // quoted over two lines
		}
		recs[i] = channel.Record{Sample: s,
			Env: channel.Env{At: s.At, Area: geo.AreaTypes[i%len(geo.AreaTypes)], SpeedKmh: float64(i)}}
	}
	return recs
}

// TestScanRecordsCSVReuseKeepsRows checks that records collected over a
// whole scan keep their own serving ids and values after later rows are
// read, and that strict and lenient errors name the same lines.
func TestScanRecordsCSVReuseKeepsRows(t *testing.T) {
	want := reuseRecords(12)
	var buf bytes.Buffer
	if err := WriteRecordsCSV(&buf, channel.StarlinkMobility, want); err != nil {
		t.Fatal(err)
	}
	collect := func(in string, lenient bool, onSkip func(int, error)) ([]channel.Record, error) {
		var got []channel.Record
		err := ScanRecordsCSV(strings.NewReader(in), lenient, onSkip,
			func(n channel.NetworkID, r channel.Record) error {
				if n != channel.StarlinkMobility {
					t.Fatalf("row network %v", n)
				}
				got = append(got, r)
				return nil
			})
		return got, err
	}
	same := func(got, want []channel.Record) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("kept %d rows, want %d", len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Sample.Serving != w.Sample.Serving || g.Sample.At != w.Sample.At ||
				g.Sample.DownMbps != w.Sample.DownMbps || g.Sample.UpMbps != w.Sample.UpMbps ||
				g.Sample.RTT != w.Sample.RTT || g.Sample.Outage != w.Sample.Outage ||
				g.Sample.Burst != w.Sample.Burst || g.Env != w.Env {
				t.Fatalf("row %d = %+v, want %+v", i, g, w)
			}
		}
	}
	got, err := collect(buf.String(), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	same(got, want)

	// Line 1 is the header and row 2 spans lines 4-5, so row 5 starts on
	// line 8 and row 7 on line 10.
	lines := strings.Split(buf.String(), "\n")
	lines[7] = "short,row"
	lines[9] = strings.Replace(lines[9], ",7000,", ",x,", 1)
	in := strings.Join(lines, "\n")
	if _, err := collect(in, false, nil); err == nil || !strings.Contains(err.Error(), "line 8:") {
		t.Fatalf("strict error %v, want one naming line 8", err)
	}
	var skipped []int
	got, err = collect(in, true, func(line int, err error) {
		if !strings.Contains(err.Error(), fmt.Sprintf("line %d:", line)) {
			t.Errorf("skip at line %d reads %v", line, err)
		}
		skipped = append(skipped, line)
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(skipped) != "[8 10]" {
		t.Fatalf("lenient skipped lines %v, want [8 10]", skipped)
	}
	same(got, append(append(append([]channel.Record{}, want[:5]...), want[6]), want[8:]...))
}

func TestReadMahimahiHardening(t *testing.T) {
	if _, err := readMahimahi(strings.NewReader(""), channel.ATT); err == nil ||
		!strings.HasPrefix(err.Error(), "trace:") {
		t.Fatal("empty mahimahi trace should fail with a trace: error")
	}
	if _, err := readMahimahi(strings.NewReader("\n \n\r\n"), channel.ATT); err == nil {
		t.Fatal("blank-only mahimahi trace should fail")
	}
	tr, err := readMahimahi(strings.NewReader("0\r\n500\r\n1200\r\n\r\n"), channel.ATT)
	if err != nil {
		t.Fatalf("CRLF mahimahi trace should parse: %v", err)
	}
	if len(tr.Samples) != 2 {
		t.Fatalf("got %d seconds, want 2", len(tr.Samples))
	}
	_, err = readMahimahi(strings.NewReader("12\nxx\n"), channel.ATT)
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want error naming line 2, got %v", err)
	}
	// One far timestamp would otherwise cost a sample per second up to it.
	huge := "0\n4000000000000\n"
	_, err = readMahimahi(strings.NewReader(huge), channel.ATT)
	if err == nil || !strings.Contains(err.Error(), "mahimahi line 2") {
		t.Fatalf("want error naming mahimahi line 2, got %v", err)
	}
	last := fmt.Sprintf("%d\n", maxMahimahiMs)
	if tr, err := readMahimahi(strings.NewReader(last), channel.ATT); err != nil || len(tr.Samples) != maxMahimahiMs/1000+1 {
		t.Fatalf("an opportunity at the bound should parse: %v", err)
	}
}

// TestWriteMahimahiBound checks that the writer rejects the opportunities
// the reader would, and that what it writes up to the bound reads back.
func TestWriteMahimahiBound(t *testing.T) {
	trace := func(lastSec int) *channel.Trace {
		return &channel.Trace{Network: channel.ATT, Samples: []channel.Sample{
			{At: 0}, // no opportunities up to the last second
			{At: time.Duration(lastSec) * time.Second, DownMbps: 12}, // 1000 opportunities/s
		}}
	}
	var buf bytes.Buffer
	if err := WriteMahimahi(&buf, trace(maxMahimahiMs/1000-1), false); err != nil {
		t.Fatalf("a trace ending a second before the bound should write: %v", err)
	}
	if _, err := readMahimahi(&buf, channel.ATT); err != nil {
		t.Fatalf("what WriteMahimahi wrote should read back: %v", err)
	}
	buf.Reset()
	err := WriteMahimahi(&buf, trace(maxMahimahiMs/1000), false)
	if err == nil || !strings.HasPrefix(err.Error(), "trace:") {
		t.Fatalf("want a trace: error for an opportunity past the bound, got %v", err)
	}
	if _, err := readMahimahi(&buf, channel.ATT); err != nil {
		t.Fatalf("the lines written before the error should read back: %v", err)
	}
}

func TestAlignSingleTrace(t *testing.T) {
	a := sampleTrace(channel.ATT, 8, 20)
	aligned := Align(a)
	if len(aligned) != 1 || len(aligned[0].Samples) != 8 {
		t.Fatalf("single-trace align broke: %d traces", len(aligned))
	}
	if aligned[0] == a {
		t.Fatal("align should return a copy, not the input")
	}
}

func TestAlignEmptySampleTrace(t *testing.T) {
	full := sampleTrace(channel.ATT, 8, 20)
	empty := &channel.Trace{Network: channel.Verizon}
	aligned := Align(full, empty)
	// The empty trace's duration is zero, so the common span collapses
	// to the first instant: the full trace keeps only its t=0 sample.
	if len(aligned[0].Samples) != 1 || aligned[0].Samples[0].At != 0 {
		t.Fatalf("full trace trimmed to %d samples", len(aligned[0].Samples))
	}
	if len(aligned[1].Samples) != 0 {
		t.Fatal("empty trace should stay empty")
	}
}

func TestAlignDisjointRanges(t *testing.T) {
	early := sampleTrace(channel.ATT, 10, 20) // covers [0s, 9s]
	late := &channel.Trace{Network: channel.Verizon}
	for i := 0; i < 10; i++ { // covers [100s, 109s]
		late.Samples = append(late.Samples, channel.Sample{
			At: time.Duration(100+i) * time.Second, DownMbps: 5,
		})
	}
	aligned := Align(early, late)
	da, db := aligned[0].Duration(), aligned[1].Duration()
	if da != db && len(aligned[1].Samples) != 0 {
		t.Fatalf("disjoint align inconsistent: %v vs %v", da, db)
	}
	// The late trace has no samples inside the common [0, 9s] span:
	// disjoint inputs yield an empty overlap, not a crash.
	if len(aligned[1].Samples) != 0 {
		t.Fatalf("late trace kept %d samples inside a disjoint span", len(aligned[1].Samples))
	}
	if len(aligned[0].Samples) != 10 {
		t.Fatalf("early trace trimmed to %d samples", len(aligned[0].Samples))
	}
}

func TestChannelTraceAt(t *testing.T) {
	tr := sampleTrace(channel.TMobile, 10, 50)
	if got := tr.At(-time.Second); got.At != 0 {
		t.Fatal("before-start should clamp")
	}
	if got := tr.At(3500 * time.Millisecond); got.At != 3*time.Second {
		t.Fatalf("At(3.5s) = %v", got.At)
	}
	if got := tr.At(time.Hour); got.At != 9*time.Second {
		t.Fatal("past-end should clamp")
	}
	empty := &channel.Trace{}
	if got := empty.At(0); got.DownMbps != 0 {
		t.Fatal("empty trace sample should be zero")
	}
}

func TestChannelTraceSeriesAndSlice(t *testing.T) {
	tr := sampleTrace(channel.ATT, 10, 50)
	ds := tr.DownSeries()
	us := tr.UpSeries()
	if len(ds) != 10 || len(us) != 10 || ds[0] != 50 || us[0] != 5 {
		t.Fatalf("series broken: %v %v", ds[0], us[0])
	}
	sl := tr.Slice(2*time.Second, 5*time.Second)
	if len(sl.Samples) != 3 {
		t.Fatalf("slice len %d", len(sl.Samples))
	}
	if sl.Samples[0].At != 0 {
		t.Fatal("slice should rebase time to zero")
	}
}

func TestParseNetworkRoundTrip(t *testing.T) {
	for _, n := range channel.Networks {
		got, err := channel.ParseNetwork(n.String())
		if err != nil || got != n {
			t.Fatalf("round trip %v failed", n)
		}
	}
	if _, err := channel.ParseNetwork("nope"); err == nil {
		t.Fatal("bad name should fail")
	}
	if channel.StarlinkRoam.Cellular() || !channel.ATT.Cellular() {
		t.Fatal("Cellular() misclassifies")
	}
	if !channel.StarlinkMobility.Satellite() || channel.Verizon.Satellite() {
		t.Fatal("Satellite() misclassifies")
	}
}

// Replay keeps capacity and RTT, strips wire loss and burst marks, and
// fills outage seconds with the last known RTT.
func TestReplayStripsLoss(t *testing.T) {
	in := sampleTrace(channel.StarlinkMobility, 6, 100)
	in.Samples[0].RTT = 0
	in.Samples[3].RTT = 0
	in.Samples[2].Burst = true
	out := Replay(in)
	if out.Network != in.Network || len(out.Samples) != len(in.Samples) {
		t.Fatalf("replay of %s/%d samples gave %s/%d", in.Network, len(in.Samples), out.Network, len(out.Samples))
	}
	for i, s := range out.Samples {
		if s.LossDown != 0 || s.LossUp != 0 || s.Burst {
			t.Fatalf("sample %d keeps loss %v/%v burst %v", i, s.LossDown, s.LossUp, s.Burst)
		}
		if s.DownMbps != in.Samples[i].DownMbps || s.Outage != in.Samples[i].Outage {
			t.Fatalf("sample %d: capacity or outage changed", i)
		}
	}
	if out.Samples[0].RTT != 50*time.Millisecond || out.Samples[3].RTT != 55*time.Millisecond {
		t.Fatalf("RTT fill: %v, %v; want 50ms before any measurement, then the last known 55ms",
			out.Samples[0].RTT, out.Samples[3].RTT)
	}
	if in.Samples[1].LossDown == 0 {
		t.Fatal("Replay modified its input")
	}
}

// readMahimahi parses a Mahimahi delivery-opportunity trace back into a
// per-second capacity trace (Mbps), attributing each opportunity to its
// second: the oracle for WriteMahimahi's round trip. It is strict: the
// first malformed line (not an integer, or outside [0, maxMahimahiMs])
// aborts with a "trace:"-prefixed error naming the line. Blank and
// whitespace-only lines (including CRLF artifacts) are tolerated; a file
// with no opportunities at all is an error.
func readMahimahi(r io.Reader, network channel.NetworkID) (*channel.Trace, error) {
	sc := bufio.NewScanner(stripBOM(r))
	counts := make(map[int64]int64)
	var maxSec, total int64
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		ms, err := strconv.ParseInt(line, 10, 64)
		if err != nil || ms < 0 || ms > maxMahimahiMs {
			return nil, fmt.Errorf("trace: mahimahi line %d: bad opportunity %q", lineNo, line)
		}
		sec := ms / 1000
		counts[sec]++
		total++
		if sec > maxSec {
			maxSec = sec
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read mahimahi: %w", err)
	}
	if total == 0 {
		return nil, errors.New("trace: empty mahimahi trace (no delivery opportunities)")
	}
	tr := &channel.Trace{Network: network}
	for sec := int64(0); sec <= maxSec; sec++ {
		mbps := float64(counts[sec]) * mahimahiMTU * 8 / 1e6
		tr.Samples = append(tr.Samples, channel.Sample{
			At:       time.Duration(sec) * time.Second,
			DownMbps: mbps,
		})
	}
	return tr, nil
}
