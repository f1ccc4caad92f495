package trace

import (
	"bytes"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"satcell/internal/channel"
	"satcell/internal/geo"
)

// rowErr matches the prefix of an error about one data row.
var rowErr = regexp.MustCompile(`^trace: line (\d+): `)

// checkSkip fails unless a lenient skip's error names its line.
func checkSkip(t *testing.T, line int, err error) {
	if m := rowErr.FindStringSubmatch(err.Error()); m == nil || m[1] != strconv.Itoa(line) {
		t.Errorf("skip of line %d reads %q", line, err)
	}
}

// FuzzReadCSV holds the trace CSV readers to their contract: no panic,
// "trace:" errors, row errors and skips that name their line, and
// strict and lenient scans that agree with a strict read that succeeded.
func FuzzReadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		strict, err := ReadCSV(bytes.NewReader(data))
		if err != nil && !strings.HasPrefix(err.Error(), "trace: ") {
			t.Fatalf("strict error %q lacks the trace: prefix", err)
		}
		for _, l := range []bool{false, true} {
			rows := 0
			serr := ScanRecordsCSV(bytes.NewReader(data), l, func(line int, err error) { checkSkip(t, line, err) },
				func(channel.NetworkID, channel.Record) error { rows++; return nil })
			if err == nil && (serr != nil || rows != len(strict.Samples)) {
				t.Fatalf("scan (lenient %v): err %v, %d rows, want %d", l, serr, rows, len(strict.Samples))
			}
			if serr != nil && !strings.HasPrefix(serr.Error(), "trace: ") {
				t.Fatalf("scan error %q lacks the trace: prefix", serr)
			}
		}
	})
}

// FuzzReadMahimahi holds the Mahimahi reader, the oracle of the
// writer's round trip, to the same contract; the timestamp bound keeps
// every input's trace at most a day of samples.
func FuzzReadMahimahi(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := readMahimahi(bytes.NewReader(data), channel.ATT)
		if err != nil && !strings.HasPrefix(err.Error(), "trace: ") {
			t.Fatalf("error %q lacks the trace: prefix", err)
		}
		if tr != nil && len(tr.Samples) > maxMahimahiMs/1000+1 {
			t.Fatalf("%d samples, beyond the timestamp bound", len(tr.Samples))
		}
	})
}

// FuzzWriteRecordsRoundTrip checks that a finite record written by
// WriteRecordsCSV reads back as its columns rounded to their written
// precision, or, for an RTT beyond a time.Duration, as a "bad rtt" error.
func FuzzWriteRecordsRoundTrip(f *testing.F) {
	f.Add(int64(1500e6), 87.654321, 9.8765, int64(41250), 0.00125, 0.0, -91.255, 63.125, uint8(0), true, false)
	f.Add(int64(-1), 0.0625, -0.0004, int64(-7), 1e-7, 0.5, 2.5, 0.0, uint8(3), false, true)
	f.Add(int64(math.MaxInt64), 1e15, 2.675, int64(math.MaxInt64), 0.0000005, 1.0, -0.005, 1e9, uint8(7), true, true)
	f.Fuzz(func(t *testing.T, atNs int64, down, up float64, rttUs int64, lossDown, lossUp, signal, speed float64, pick uint8, outage, burst bool) {
		for _, v := range []float64{down, up, lossDown, lossUp, signal, speed} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		servings := []string{"sat-01", "", `\.`, " lead", "a,b", `q"x`, "two\nlines"}
		rec := channel.Record{
			Sample: channel.Sample{
				At: time.Duration(atNs), DownMbps: down, UpMbps: up, RTT: time.Duration(rttUs) * time.Microsecond,
				LossDown: lossDown, LossUp: lossUp, SignalDB: signal,
				Serving: servings[int(pick)%len(servings)], Outage: outage, Burst: burst,
			},
			Env: channel.Env{Area: geo.AreaTypes[int(pick)%len(geo.AreaTypes)], SpeedKmh: speed},
		}
		var buf bytes.Buffer
		if err := WriteRecordsCSV(&buf, channel.TMobile, []channel.Record{rec}); err != nil {
			t.Fatal(err)
		}
		var got []channel.Record
		err := ScanRecordsCSV(bytes.NewReader(buf.Bytes()), false, nil, func(n channel.NetworkID, r channel.Record) error {
			got = append(got, r)
			return nil
		})
		round := func(v float64, p int) float64 {
			r, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'f', p, 64), 64)
			return r
		}
		rttNs := round(float64(rec.Sample.RTT.Microseconds())/1000, 3) * float64(time.Millisecond)
		if rttNs >= 1<<63 || rttNs < -1<<63 {
			if err == nil || !strings.Contains(err.Error(), "bad rtt") {
				t.Fatalf("an RTT of %v ns read back with error %v", rttNs, err)
			}
			return
		}
		if err != nil || len(got) != 1 {
			t.Fatalf("read back %d rows: %v\n%s", len(got), err, buf.Bytes())
		}
		s, g := rec.Sample, got[0]
		want := channel.Record{
			Sample: channel.Sample{
				At: s.At.Truncate(time.Millisecond), DownMbps: round(down, 3), UpMbps: round(up, 3),
				RTT:      time.Duration(rttNs),
				LossDown: round(lossDown, 6), LossUp: round(lossUp, 6), SignalDB: round(signal, 2),
				Serving: s.Serving, Outage: outage, Burst: burst,
			},
			Env: channel.Env{At: s.At.Truncate(time.Millisecond), Area: rec.Env.Area, SpeedKmh: round(speed, 2)},
		}
		if g != want {
			t.Fatalf("read back %+v, want %+v", g, want)
		}
	})
}
