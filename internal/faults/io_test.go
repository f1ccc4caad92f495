package faults

import (
	"sync"
	"testing"
	"time"
)

func TestIOScheduleDigestReplayGate(t *testing.T) {
	spec := "read-err:drive002_*:x1;bitflip:*.csv:@0.001;stall:*:+5ms"
	a, err := ParseIOSpec(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseIOSpec(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() != b.Digest() {
		t.Error("same (spec, seed) produced different digests")
	}
	c, err := ParseIOSpec(spec, 43)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() == c.Digest() {
		t.Error("different seeds share a digest")
	}
	d, err := ParseIOSpec("read-err:drive002_*:x2;bitflip:*.csv:@0.001;stall:*:+5ms", 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() == d.Digest() {
		t.Error("different rule counts share a digest")
	}
}

func TestParseIOSpec(t *testing.T) {
	s, err := ParseIOSpec("read-err:drive00*:x3;enospc:tests.csv;short-write:*:@0.5;stall:*.csv:+250ms", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rules) != 4 {
		t.Fatalf("%d rules, want 4", len(s.Rules))
	}
	want := []IORule{
		{Kind: IOReadErr, Path: "drive00*", Count: 3},
		{Kind: IOWriteErr, Path: "tests.csv"},
		{Kind: IOShortWrite, Path: "*", Prob: 0.5},
		{Kind: IOStall, Path: "*.csv", Stall: 250 * time.Millisecond},
	}
	for i, r := range s.Rules {
		if r != want[i] {
			t.Errorf("rule %d = %+v, want %+v", i, r, want[i])
		}
	}

	for _, bad := range []string{
		"read-err",                // no glob
		"melt:*",                  // unknown kind
		"read-err:[",              // malformed glob
		"read-err:*:x0",           // zero count
		"read-err:*:xq",           // non-numeric count
		"read-err:*:@2",           // probability out of range
		"read-err:*:@NaN",         // probability not a number
		"stall:*",                 // stall without duration
		"stall:*:+bogus",          // malformed duration
		"read-err:*:frobnicate=1", // unknown modifier
	} {
		if _, err := ParseIOSpec(bad, 7); err == nil {
			t.Errorf("ParseIOSpec(%q) accepted", bad)
		}
	}

	empty, err := ParseIOSpec("  ;; ", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Rules) != 0 {
		t.Errorf("blank spec parsed %d rules", len(empty.Rules))
	}
}

// TestIOInjectorCountLimitedIsPerFile locks the transient-fault
// contract: an xN rule fails each matching file's first N matching
// operations, independently per file, then stays quiet — which is what
// makes a retry (re-reading the file from scratch) succeed.
func TestIOInjectorCountLimitedIsPerFile(t *testing.T) {
	sched, err := ParseIOSpec("read-err:drive*:x2", 1)
	if err != nil {
		t.Fatal(err)
	}
	j := NewIOInjector(sched)
	for _, file := range []string{"drive000_I5_ATT.csv", "drive001_I5_ATT.csv"} {
		for op := 0; op < 5; op++ {
			d := j.Decide(IOOpRead, file)
			if want := op < 2; (d.Kind == IOReadErr) != want {
				t.Errorf("%s op %d: fired=%v, want %v", file, op, d.Kind == IOReadErr, want)
			}
		}
	}
	if d := j.Decide(IOOpRead, "tests.csv"); d.Kind != IONone {
		t.Errorf("non-matching file drew %v", d.Kind)
	}
	if got := j.Stats().ReadErrs; got != 4 {
		t.Errorf("ReadErrs = %d, want 4", got)
	}
}

// TestIOInjectorInterleavingIndependence runs the same per-file
// operation sequences through two injectors with the file order
// interleaved differently; every (file, op index) decision must agree.
// This is the property that makes disk-fault chaos runs reproducible
// across worker counts.
func TestIOInjectorInterleavingIndependence(t *testing.T) {
	sched, err := ParseIOSpec("bitflip:*:@0.3;read-err:drive0*:@0.2", 99)
	if err != nil {
		t.Fatal(err)
	}
	files := []string{"drive000_a.csv", "drive001_b.csv", "tests.csv"}
	const ops = 64

	decide := func(order []int) map[string][]IODecision {
		j := NewIOInjector(sched)
		out := make(map[string][]IODecision)
		for op := 0; op < ops; op++ {
			for _, fi := range order {
				f := files[fi]
				out[f] = append(out[f], j.Decide(IOOpRead, f))
			}
		}
		return out
	}
	a := decide([]int{0, 1, 2})
	b := decide([]int{2, 1, 0})
	fired := 0
	for _, f := range files {
		for i := range a[f] {
			if a[f][i] != b[f][i] {
				t.Fatalf("%s op %d: %+v vs %+v under different interleavings", f, i, a[f][i], b[f][i])
			}
			if a[f][i].Kind != IONone {
				fired++
			}
		}
	}
	if fired == 0 {
		t.Error("probabilistic rules never fired in 192 draws")
	}
}

// TestIOInjectorConcurrentUse hammers one injector from several
// goroutines (the streaming workers' usage); the race detector checks
// the locking, the counts check no decision was lost.
func TestIOInjectorConcurrentUse(t *testing.T) {
	sched, err := ParseIOSpec("read-err:*:x10", 3)
	if err != nil {
		t.Fatal(err)
	}
	j := NewIOInjector(sched)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			file := []string{"a.csv", "b.csv", "c.csv", "d.csv"}[w%4]
			for op := 0; op < 50; op++ {
				j.Decide(IOOpRead, file)
			}
		}()
	}
	wg.Wait()
	// 4 files, x10 each: exactly 40 fires across 400 decisions.
	if got := j.Stats().ReadErrs; got != 40 {
		t.Errorf("ReadErrs = %d, want 40", got)
	}
}

func TestIOKindOpRouting(t *testing.T) {
	j := NewIOInjector(IOSchedule{Rules: []IORule{{Kind: IOWriteErr, Path: "*"}}})
	if d := j.Decide(IOOpRead, "x.csv"); d.Kind != IONone {
		t.Errorf("write rule fired on a read: %v", d.Kind)
	}
	if d := j.Decide(IOOpWrite, "x.csv"); d.Kind != IOWriteErr {
		t.Errorf("write rule did not fire on a write: %v", d.Kind)
	}
}
