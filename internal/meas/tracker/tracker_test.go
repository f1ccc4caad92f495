package tracker

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"satcell/internal/channel"
)

type fakeProvider struct{ fail bool }

func (f fakeProvider) Info(at time.Duration) (Record, error) {
	if f.fail {
		return Record{}, errors.New("modem unavailable")
	}
	return Record{
		Network: channel.StarlinkMobility.String(),
		NetType: channel.StarlinkMobility.Class().String(),
		Lat:     44.1, Lon: -90.2, SpeedKmh: 88,
		SignalDB: 8.5, Serving: "SL-01-02",
	}, nil
}

func TestSampleRangeAndRecords(t *testing.T) {
	tr := New(fakeProvider{}, 100*time.Millisecond)
	if err := tr.SampleRange(time.Second); err != nil {
		t.Fatal(err)
	}
	recs := tr.Records()
	if len(recs) != 10 {
		t.Fatalf("records = %d, want 10", len(recs))
	}
	if recs[3].AtMs != 300 {
		t.Fatalf("AtMs = %d", recs[3].AtMs)
	}
	if recs[0].Network != channel.StarlinkMobility.String() || recs[0].SpeedKmh != 88 {
		t.Fatalf("record contents wrong: %+v", recs[0])
	}
}

func TestSampleRangeError(t *testing.T) {
	tr := New(fakeProvider{fail: true}, time.Second)
	if err := tr.SampleRange(2 * time.Second); err == nil {
		t.Fatal("provider error should propagate")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := New(fakeProvider{}, time.Second)
	if err := tr.SampleRange(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := readJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Records()
	if len(got) != len(want) {
		t.Fatalf("len %d != %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestReadJSONLBadInput(t *testing.T) {
	if _, err := readJSONL(bytes.NewBufferString("{bad json")); err == nil {
		t.Fatal("bad input should fail")
	}
}

func TestDefaultPeriod(t *testing.T) {
	tr := New(fakeProvider{}, 0)
	if tr.period != time.Second {
		t.Fatal("default period should be 1s")
	}
}

// FuzzTrackerReadJSONL holds readJSONL to its contract on any input:
// no panic, errors prefixed tracker:, and records it accepts survive a
// WriteJSONL/readJSONL round trip unchanged.
func FuzzTrackerReadJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := readJSONL(bytes.NewReader(data))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "tracker: ") {
				t.Fatalf("error %q is not a tracker: error", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := (&Tracker{records: recs}).WriteJSONL(&buf); err != nil {
			t.Fatalf("WriteJSONL of %d accepted records: %v", len(recs), err)
		}
		again, err := readJSONL(&buf)
		if err != nil {
			t.Fatalf("re-read of written records: %v\n%s", err, buf.Bytes())
		}
		if !slices.Equal(again, recs) {
			t.Fatalf("round trip changed records:\n%+v\n%+v", recs, again)
		}
	})
}

// readJSONL parses records written by WriteJSONL: the tests' oracle
// for the tracker's JSONL output.
func readJSONL(r io.Reader) ([]Record, error) {
	dec := json.NewDecoder(r)
	var out []Record
	for {
		var rec Record
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("tracker: decode: %w", err)
		}
		out = append(out, rec)
	}
}
