package faults

import (
	"path"
	"strconv"
	"strings"
	"testing"
)

// namesEntry reports whether err names one of spec's ';'-separated
// entries, quoted, as both parsers do ("faults: \"entry\": ...").
func namesEntry(err error, spec string) bool {
	msg := err.Error()
	if !strings.HasPrefix(msg, "faults: ") {
		return false
	}
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry != "" && strings.Contains(msg, strconv.Quote(entry)) {
			return true
		}
	}
	return false
}

// FuzzParseSpec: the -faults grammar must never panic; a rejected spec
// names the offending entry, and an accepted one is a well-formed
// schedule (sorted windows with start >= 0, dur > 0 and an end that
// does not overflow; probabilities in [0, 1]) that parses again to the
// same digest. Seed corpus: testdata/fuzz/FuzzParseSpec.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string, seed int64) {
		s, err := ParseSpec(spec, seed)
		if err != nil {
			if !namesEntry(err, spec) {
				t.Fatalf("error names no entry of %q: %v", spec, err)
			}
			return
		}
		for _, ws := range [][]Window{s.Blackouts, s.Restarts, s.DialFails} {
			for i, w := range ws {
				if w.Start < 0 || w.Dur <= 0 || w.End() < w.Start {
					t.Fatalf("malformed window %+v from %q", w, spec)
				}
				if i > 0 && ws[i-1].Start > w.Start {
					t.Fatalf("windows out of order from %q: %+v", spec, ws)
				}
			}
		}
		for _, p := range []float64{s.CorruptProb, s.TruncateProb} {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("probability %v from %q", p, spec)
			}
		}
		again, err := ParseSpec(spec, seed)
		if err != nil || again.Digest() != s.Digest() {
			t.Fatalf("reparse of %q differs: %v", spec, err)
		}
	})
}

// FuzzParseIOSpec: the -iofaults grammar must never panic; a rejected
// spec names the offending entry, and an accepted one holds one valid
// rule per non-empty entry (a known kind, a glob path.Match accepts,
// count >= 0, probability in [0, 1], a stall on exactly the stall
// kinds' demand) and parses again to the same digest. Seed corpus:
// testdata/fuzz/FuzzParseIOSpec.
func FuzzParseIOSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string, seed int64) {
		s, err := ParseIOSpec(spec, seed)
		if err != nil {
			if !namesEntry(err, spec) {
				t.Fatalf("error names no entry of %q: %v", spec, err)
			}
			return
		}
		entries := 0
		for _, entry := range strings.Split(spec, ";") {
			if strings.TrimSpace(entry) != "" {
				entries++
			}
		}
		if len(s.Rules) != entries {
			t.Fatalf("%d rules from %d entries of %q", len(s.Rules), entries, spec)
		}
		for _, r := range s.Rules {
			if r.Kind == IONone || r.Count < 0 || !(r.Prob >= 0 && r.Prob <= 1) || r.Stall < 0 {
				t.Fatalf("malformed rule %+v from %q", r, spec)
			}
			if (r.Kind == IOStall || r.Kind == IOWriteStall) && r.Stall == 0 {
				t.Fatalf("stall rule without a duration from %q: %+v", spec, r)
			}
			for _, name := range []string{"", "tests.csv", "drive001_RM.csv", "MANIFEST"} {
				if _, err := path.Match(r.Path, name); err != nil {
					t.Fatalf("accepted glob %q fails on %q: %v", r.Path, name, err)
				}
			}
		}
		again, err := ParseIOSpec(spec, seed)
		if err != nil || again.Digest() != s.Digest() {
			t.Fatalf("reparse of %q differs: %v", spec, err)
		}
	})
}
