package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"regexp"
	"strconv"
	"testing"
)

// namedPosition extracts the line/entry number an error names, or -1.
func namedPosition(err error, word string) int {
	m := regexp.MustCompile(word + ` (\d+)`).FindStringSubmatch(err.Error())
	if m == nil {
		return -1
	}
	n, convErr := strconv.Atoi(m[1])
	if convErr != nil {
		return -1
	}
	return n
}

// FuzzReadJSONL: the -events reader must never panic; a rejected trace
// names a line inside the input, and an accepted one survives a
// re-encode unchanged. Seed corpus: testdata/fuzz/FuzzReadJSONL.
func FuzzReadJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			lines := bytes.Count(data, []byte("\n")) + 1
			if n := namedPosition(err, "line"); n < 1 || n > lines {
				t.Fatalf("error names no line within the %d-line input: %v", lines, err)
			}
			return
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				t.Fatal(err)
			}
		}
		again, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		if len(evs) != len(again) || (len(evs) > 0 && !reflect.DeepEqual(evs, again)) {
			t.Fatalf("round trip changed the trace:\n%+v\n%+v", evs, again)
		}
	})
}

// FuzzReplayTelemetry: journal replay over line-split entries must never
// panic; a rejected journal names an entry inside the input, and an
// accepted one renders as a report and a summary whose counts agree
// with the replayed log. Seed corpus: testdata/fuzz/FuzzReplayTelemetry.
func FuzzReplayTelemetry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var entries []json.RawMessage
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSpace(line)) > 0 {
				entries = append(entries, json.RawMessage(line))
			}
		}
		log, err := ReplayTelemetry(entries)
		if err != nil {
			if n := namedPosition(err, "entry"); n < 1 || n > len(entries) {
				t.Fatalf("error names no entry within the %d entries: %v", len(entries), err)
			}
			return
		}
		walked := 0
		log.Walk(func(*ReplaySpan) { walked++ })
		if walked != log.Spans() || log.Open() < 0 || log.Open() > log.Spans() {
			t.Fatalf("walked %d spans, log counts %d (%d open)", walked, log.Spans(), log.Open())
		}
		if sum := Summarize(log); sum.Spans != log.Spans() || sum.Open != log.Open() {
			t.Fatalf("summary counts %d/%d, log %d/%d", sum.Spans, sum.Open, log.Spans(), log.Open())
		}
		RenderFlightReport(log)
	})
}
