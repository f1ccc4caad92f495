package faults

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"satcell/internal/emu"
	"satcell/internal/obs"
)

func TestWindowContains(t *testing.T) {
	w := Window{Start: time.Second, Dur: 500 * time.Millisecond}
	if w.End() != 1500*time.Millisecond {
		t.Fatalf("End = %v", w.End())
	}
	for _, c := range []struct {
		at   time.Duration
		want bool
	}{
		{999 * time.Millisecond, false},
		{time.Second, true},
		{1499 * time.Millisecond, true},
		{1500 * time.Millisecond, false}, // half-open
	} {
		if got := w.Contains(c.at); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

// An auto= entry's blackouts lie inside its horizon, with durations
// inside the clamp, and the parsed schedule holds them sorted.
func TestGenerateWindowBounds(t *testing.T) {
	s, err := ParseSpec("auto=50/10s", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Blackouts) != 50 {
		t.Fatalf("got %d windows", len(s.Blackouts))
	}
	var prev time.Duration
	for _, w := range s.Blackouts {
		if w.Start < 0 || w.Start >= 10*time.Second {
			t.Fatalf("window start %v outside horizon", w.Start)
		}
		if w.Dur < minBlackout || w.Dur > 4*blackoutMean {
			t.Fatalf("window duration %v outside clamp", w.Dur)
		}
		if w.Start < prev {
			t.Fatal("windows not sorted by start")
		}
		prev = w.Start
	}
	if s.BlackoutFraction() <= 0 {
		t.Fatal("blackout fraction should be positive")
	}
}

// The placement of a spec's single auto= entry is pinned by digest: the
// replay benchmark's shapes (auto=4/45s and auto=4/10s at seed 42), the
// replay golden's, vsession's, mpshell's documented example, livetools'
// and a dense one. A change here moves every faulted replay.
func TestParseSpecAutoDigestsPinned(t *testing.T) {
	for _, c := range []struct {
		spec   string
		seed   int64
		digest string
	}{
		{"auto=4/45s", 42, "79762613b738e9e74bdad354accc438a6bb4bb582867d46494e7891189fbd7f4"},
		{"auto=4/10s", 42, "a6f1a95963300cc4f39326a6511b202db98774155adc9767a2c6bfb50c54edae"},
		{"auto=3/20s", 42, "1f02f80041dede74c3b46e63848281352004d2e6c857f32dfe0d7749e820be4d"},
		{"auto=4/45s", 7, "87ece0335cddc151f2a176f786597b0de3c56c2675f76e00ad6d045e20200b4f"},
		{"blackout@5s+800ms;auto=4/60s;corrupt=0.001", 7, "e2663414e1aab5bf4079b254a24978fcf4790c5efa3725bbfe728e2e050ef115"},
		{"auto=3/6s", 99, "7f5ff0a6bb24ea2b56e8d889f46ad1753d7032c246d51e8c48e6124fdca1164e"},
		{"auto=50/10s", 7, "6cccdb2ea42bdf8f581ac504e5765577899e2f4159d8976574e5d1e23dcba8b1"},
	} {
		s, err := ParseSpec(c.spec, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Digest(); got != c.digest {
			t.Errorf("ParseSpec(%q, %d) digest %s, want %s\n%s", c.spec, c.seed, got, c.digest, s.String())
		}
	}
}

// Repeated auto= entries place different windows: each draws from its
// own seed instead of repeating the first entry's draw.
func TestParseSpecRepeatedAutoEntriesDiffer(t *testing.T) {
	s, err := ParseSpec("auto=3/10s;auto=3/10s", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Blackouts) != 6 {
		t.Fatalf("got %d windows, want 6", len(s.Blackouts))
	}
	seen := map[Window]bool{}
	for _, w := range s.Blackouts {
		if seen[w] {
			t.Fatalf("window %+v placed twice: %v", w, s.Blackouts)
		}
		seen[w] = true
	}
	// The first entry still places what a lone auto= entry does.
	one, _ := ParseSpec("auto=3/10s", 7)
	for _, w := range one.Blackouts {
		if !seen[w] {
			t.Fatalf("first entry lost window %+v of the lone entry", w)
		}
	}
}

func TestScheduleQueries(t *testing.T) {
	s := Schedule{
		Horizon:   10 * time.Second,
		Blackouts: []Window{{Start: time.Second, Dur: time.Second}},
		Restarts:  []Window{{Start: 4 * time.Second, Dur: time.Second}},
		DialFails: []Window{{Start: 7 * time.Second, Dur: time.Second}},
	}
	if !s.BlackoutAt(1500 * time.Millisecond) {
		t.Fatal("inside blackout not detected")
	}
	if s.BlackoutAt(3 * time.Second) {
		t.Fatal("false blackout")
	}
	// Dial fails both in explicit windows and while restarting.
	if !s.DialFailAt(7500*time.Millisecond) || !s.DialFailAt(4500*time.Millisecond) {
		t.Fatal("dial-fail windows not honoured")
	}
	if s.DialFailAt(2 * time.Second) {
		t.Fatal("false dial failure")
	}
	if f := s.BlackoutFraction(); f != 0.1 {
		t.Fatalf("BlackoutFraction = %v, want 0.1", f)
	}
}

func TestParseSpecExplicit(t *testing.T) {
	s, err := ParseSpec("blackout@1s+500ms; restart@3s+2s; dialfail@6s+1s; corrupt=0.01; truncate=0.02", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Blackouts) != 1 || s.Blackouts[0] != (Window{Start: time.Second, Dur: 500 * time.Millisecond}) {
		t.Fatalf("blackouts = %+v", s.Blackouts)
	}
	if len(s.Restarts) != 1 || len(s.DialFails) != 1 {
		t.Fatalf("restarts/dialfails = %+v / %+v", s.Restarts, s.DialFails)
	}
	if s.CorruptProb != 0.01 || s.TruncateProb != 0.02 {
		t.Fatalf("probs = %v / %v", s.CorruptProb, s.TruncateProb)
	}
	// Horizon defaults to the last window end (dialfail ends at 7s).
	if s.Horizon != 7*time.Second {
		t.Fatalf("Horizon = %v, want 7s", s.Horizon)
	}
}

func TestParseSpecAutoDeterministic(t *testing.T) {
	a, err := ParseSpec("auto=5/20s; blackout@1s+200ms", 99)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ParseSpec("auto=5/20s; blackout@1s+200ms", 99)
	if a.Digest() != b.Digest() {
		t.Fatal("same (spec, seed) parsed to different schedules")
	}
	if len(a.Blackouts) != 6 {
		t.Fatalf("auto + explicit = %d windows, want 6", len(a.Blackouts))
	}
	if a.Horizon != 20*time.Second {
		t.Fatalf("Horizon = %v, want 20s", a.Horizon)
	}
	c, _ := ParseSpec("auto=5/20s; blackout@1s+200ms", 100)
	if c.Digest() == a.Digest() {
		t.Fatal("different seeds parsed to identical schedules")
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"blackout@1s",                // missing +DUR
		"blackout@-1s+1s",            // negative start
		"corrupt=1.5",                // prob outside [0,1]
		"corrupt=x",                  // not a number
		"truncate=NaN",               // not a probability
		"auto=5",                     // missing horizon
		"auto=0/10s",                 // zero count
		"meteor@1s+1s",               // unknown kind
		"restart@1s+junk",            // bad duration
		"dialfail@junk+1s",           // bad start
		"auto=10001/10s",             // count above maxAutoBlackouts
		"auto=1/2562047h",            // horizon leaves no room for a window
		"blackout@2562047h+2562047h", // end overflows
	} {
		if _, err := ParseSpec(spec, 1); err == nil {
			t.Errorf("spec %q: want error", spec)
		}
	}
	if s, err := ParseSpec("  ;; ", 1); err != nil || s.Digest() != (&Schedule{Seed: 1}).Digest() {
		t.Fatal("empty spec must parse to the healthy schedule")
	}
}

// TestInjectorDatagramDeterministic feeds two injectors built from the
// same schedule an identical packet sequence: the mangled outputs and
// the fault counters must match byte for byte.
func TestInjectorDatagramDeterministic(t *testing.T) {
	s := Schedule{Seed: 21, CorruptProb: 0.3, TruncateProb: 0.3}
	a, b := NewInjector(s), NewInjector(s)
	for i := 0; i < 500; i++ {
		pkt := make([]byte, 64)
		for j := range pkt {
			pkt[j] = byte(i + j)
		}
		cp := append([]byte(nil), pkt...)
		outA, dropA := a.Datagram(0, pkt)
		outB, dropB := b.Datagram(0, cp)
		if dropA != dropB || !bytes.Equal(outA, outB) {
			t.Fatalf("packet %d diverged: drop %v/%v len %d/%d", i, dropA, dropB, len(outA), len(outB))
		}
	}
	sa, sb := a.Stats(), b.Stats()
	if sa != sb {
		t.Fatalf("stats diverged: %+v vs %+v", sa, sb)
	}
	if sa.Corrupted == 0 || sa.Truncated == 0 {
		t.Fatalf("faults never fired: %+v", sa)
	}
}

func TestInjectorNilTolerant(t *testing.T) {
	var in *Injector
	if in.LinkDown(0) || in.DialFails(0) {
		t.Fatal("nil injector reported faults")
	}
	pkt := []byte{1, 2, 3}
	out, drop := in.Datagram(0, pkt)
	if drop || !bytes.Equal(out, pkt) {
		t.Fatal("nil injector touched the datagram")
	}
	if in.Stats() != (Stats{}) {
		t.Fatal("nil injector has stats")
	}
}

func TestInjectorCountsBlackoutAndDials(t *testing.T) {
	in := NewInjector(Schedule{
		Blackouts: []Window{{Start: 0, Dur: time.Second}},
		DialFails: []Window{{Start: 0, Dur: time.Second}},
	})
	if !in.LinkDown(100*time.Millisecond) || !in.DialFails(100*time.Millisecond) {
		t.Fatal("faults not active inside windows")
	}
	if in.LinkDown(2*time.Second) || in.DialFails(2*time.Second) {
		t.Fatal("faults active outside windows")
	}
	st := in.Stats()
	if st.BlackoutDrops != 1 || st.DialsRefused != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSupervisorRunsWindows(t *testing.T) {
	var mu []string
	var lock = make(chan struct{}, 1)
	lock <- struct{}{}
	record := func(s string) {
		<-lock
		mu = append(mu, s)
		lock <- struct{}{}
	}
	sup := Supervise(
		[]Window{{Start: 20 * time.Millisecond, Dur: 30 * time.Millisecond},
			{Start: 100 * time.Millisecond, Dur: 20 * time.Millisecond}},
		func() { record("kill") }, func() { record("restore") })
	time.Sleep(200 * time.Millisecond)
	sup.Stop()
	kills, restores := counts(sup)
	if kills != 2 || restores != 2 {
		t.Fatalf("kills/restores = %d/%d, want 2/2", kills, restores)
	}
	<-lock
	want := []string{"kill", "restore", "kill", "restore"}
	if len(mu) != 4 {
		t.Fatalf("events = %v", mu)
	}
	for i := range want {
		if mu[i] != want[i] {
			t.Fatalf("events = %v, want %v", mu, want)
		}
	}
}

// TestSupervisorMergesOverlappingWindows is the wall-clock side of
// TestSupervisorVirtualClockMergesOverlappingWindows: two overlapping
// restart windows kill the component once and restore it once, at the
// end of their union.
func TestSupervisorMergesOverlappingWindows(t *testing.T) {
	var mu sync.Mutex
	var events []string
	var restoredAt time.Duration
	start := time.Now()
	sup := Supervise(
		[]Window{{Start: 20 * time.Millisecond, Dur: 40 * time.Millisecond},
			{Start: 40 * time.Millisecond, Dur: 40 * time.Millisecond}},
		func() {
			mu.Lock()
			events = append(events, "kill")
			mu.Unlock()
		},
		func() {
			mu.Lock()
			events = append(events, "restore")
			restoredAt = time.Since(start)
			mu.Unlock()
		})
	time.Sleep(200 * time.Millisecond)
	sup.Stop()
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(events) != "[kill restore]" {
		t.Fatalf("events = %v, want [kill restore]", events)
	}
	if restoredAt < 80*time.Millisecond {
		t.Fatalf("restored at %v, before the union ends at 80ms", restoredAt)
	}
	if kills, restores := counts(sup); kills != 1 || restores != 1 {
		t.Fatalf("kills/restores = %d/%d, want 1/1", kills, restores)
	}
}

// TestSupervisorStopMidWindowRestores stops the supervisor while the
// component is down: restore must still run, so nothing is left dead.
// In the "during kill" case Stop lands while kill is still running on
// its timer goroutine: Stop must return only after that kill, restore
// the component, and leave no edge to fire afterwards.
func TestSupervisorStopMidWindowRestores(t *testing.T) {
	for _, tc := range []struct {
		name    string
		windows []Window
		// killFor is how long the first kill keeps running after Stop
		// has been called; the later edges are overdue by then.
		killFor time.Duration
	}{
		{"after kill", []Window{{Start: 10 * time.Millisecond, Dur: 10 * time.Second}}, 0},
		{"during kill", []Window{{Start: 10 * time.Millisecond, Dur: 30 * time.Millisecond},
			{Start: 60 * time.Millisecond, Dur: 10 * time.Millisecond}}, 50 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var kills, restores atomic.Int32
			killing := make(chan struct{})  // closed when the first kill starts
			stopping := make(chan struct{}) // closed just before Stop
			killed := make(chan struct{})   // closed when the first kill returns
			sup := Supervise(tc.windows,
				func() {
					if kills.Add(1) > 1 {
						return
					}
					close(killing)
					if tc.killFor > 0 {
						<-stopping
						time.Sleep(tc.killFor)
					}
					close(killed)
				},
				func() { restores.Add(1) })
			if tc.killFor > 0 {
				<-killing
			} else {
				<-killed
			}
			close(stopping)
			sup.Stop()
			select {
			case <-killed:
			default:
				t.Fatal("Stop returned while kill was still running")
			}
			if k, r := kills.Load(), restores.Load(); k != 1 || r != 1 {
				t.Fatalf("kills/restores = %d/%d, want 1/1 (restored on Stop)", k, r)
			}
			if k, r := counts(sup); k != 1 || r != 1 {
				t.Fatalf("counts = %d/%d, want 1/1", k, r)
			}
			time.Sleep(100 * time.Millisecond) // past every overdue edge
			if k, r := kills.Load(), restores.Load(); k != 1 || r != 1 {
				t.Fatalf("edge fired after Stop: kills/restores = %d/%d", k, r)
			}
			sup.Stop() // idempotent
		})
	}
}

// TestInstrumentPinsDeterministic pins coincident windows of all three
// kinds and checks the exported trace is byte-identical across runs:
// events at one offset keep a fixed kind order.
func TestInstrumentPinsDeterministic(t *testing.T) {
	sched, err := ParseSpec("blackout@1s+1s;restart@1s+1s;dialfail@1s+1s", 1)
	if err != nil {
		t.Fatal(err)
	}
	export := func() string {
		tr := obs.NewTracer(64)
		NewInjector(sched).Instrument(nil, tr)
		var b bytes.Buffer
		if err := tr.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	first := export()
	for i := 0; i < 50; i++ {
		if got := export(); got != first {
			t.Fatalf("run %d exported\n%s\nwant\n%s", i, got, first)
		}
	}
}

// TestEmuLinkBlackout drives the in-process emulator with a masked rate
// function: packets sent during a blackout window are held (the link
// polls for capacity) and delivered only after the window passes —
// virtual time, no wall-clock sleeping, fully deterministic.
// blackoutRate is a 10 Mbps link rate with the schedule's blackout
// windows cut out.
func blackoutRate(s Schedule) emu.RateFunc {
	return func(t time.Duration) float64 {
		if s.BlackoutAt(t) {
			return 0
		}
		return 10
	}
}

func TestEmuLinkBlackout(t *testing.T) {
	s := Schedule{Blackouts: []Window{{Start: 100 * time.Millisecond, Dur: 200 * time.Millisecond}}}
	eng := emu.NewEngine()
	var deliveredAt []time.Duration
	link := emu.NewLink(eng, emu.LinkConfig{
		Rate: blackoutRate(s),
	}, func(p *emu.Packet) {
		deliveredAt = append(deliveredAt, eng.Now())
	})
	// One packet before the window, one during.
	eng.Schedule(10*time.Millisecond, func() { link.Send(&emu.Packet{Seq: 0, Size: 1500}) })
	eng.Schedule(150*time.Millisecond, func() { link.Send(&emu.Packet{Seq: 1, Size: 1500}) })
	eng.RunUntil(time.Second)

	if len(deliveredAt) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(deliveredAt))
	}
	// Packet 0: 1500 B at 10 Mbps is 1.2 ms — well before the blackout.
	if deliveredAt[0] > 100*time.Millisecond {
		t.Fatalf("pre-blackout packet delivered at %v", deliveredAt[0])
	}
	// Packet 1 entered a dead link and must wait out the window.
	if deliveredAt[1] < 300*time.Millisecond {
		t.Fatalf("blackout packet delivered at %v, before the window ended", deliveredAt[1])
	}

	// Replay: the identical virtual-time run delivers at identical times.
	eng2 := emu.NewEngine()
	var replay []time.Duration
	link2 := emu.NewLink(eng2, emu.LinkConfig{
		Rate: blackoutRate(s),
	}, func(p *emu.Packet) { replay = append(replay, eng2.Now()) })
	eng2.Schedule(10*time.Millisecond, func() { link2.Send(&emu.Packet{Seq: 0, Size: 1500}) })
	eng2.Schedule(150*time.Millisecond, func() { link2.Send(&emu.Packet{Seq: 1, Size: 1500}) })
	eng2.RunUntil(time.Second)
	if len(replay) != 2 || replay[0] != deliveredAt[0] || replay[1] != deliveredAt[1] {
		t.Fatalf("replay diverged: %v vs %v", replay, deliveredAt)
	}
}

// counts returns how many kill and restore calls the supervisor has run.
func counts(s *Supervisor) (kills, restores int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.kills, s.resets
}
