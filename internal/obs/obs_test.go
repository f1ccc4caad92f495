package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestObsCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.count")
	g := r.Gauge("test.gauge")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Set(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if g.Value() != 999 {
		t.Fatalf("gauge = %v, want 999", g.Value())
	}
	// Get-or-create returns the same handle.
	if r.Counter("test.count") != c {
		t.Fatal("counter handle not reused")
	}
}

func TestObsHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test.mbps", MbpsBuckets)
	for _, v := range []float64{0.5, 3, 30, 120, 9999} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if want := 0.5 + 3 + 30 + 120 + 9999; s.Sum != float64(want) {
		t.Fatalf("sum = %v, want %v", s.Sum, want)
	}
	// 9999 exceeds the last bound (500): overflow bucket.
	if s.Counts[len(s.Counts)-1] != 1 {
		t.Fatalf("overflow bucket = %d, want 1", s.Counts[len(s.Counts)-1])
	}
	// 0.5 lands in the first bucket (bound 1).
	if s.Counts[0] != 1 {
		t.Fatalf("first bucket = %d, want 1", s.Counts[0])
	}
}

func TestObsNilSafety(t *testing.T) {
	// Every handle from a nil registry must be a usable no-op: this is
	// the contract that lets instrumentation stay unconditionally wired
	// on the live path.
	var r *Registry
	r.Counter("x").Add(5)
	r.Counter("x").Inc()
	r.Gauge("y").Set(3)
	r.Histogram("z", MbpsBuckets).Observe(1)
	r.RegisterFunc("f", func() float64 { return 1 })
	if len(r.Snapshot()) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	if r.Counter("x").Value() != 0 || r.Gauge("y").Value() != 0 {
		t.Fatal("nil handles must read zero")
	}
	var tr *Tracer
	tr.Record(Event{})
	tr.Packet(time.Second, EvDrop, "relay.udp", "up", 100, "loss")
	tr.Span(time.Second, EvFaultOpen, "faults", "blackout")
	if tr.Snapshot() != nil || tr.Total() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer must be empty")
	}
	var lg *Logger
	lg.Infof("no crash")
}

func TestObsRegisterFuncSnapshot(t *testing.T) {
	r := NewRegistry()
	depth := 0
	r.RegisterFunc("queue.depth", func() float64 { return float64(depth) })
	depth = 7
	snap := r.Snapshot()
	if snap["queue.depth"] != 7.0 {
		t.Fatalf("func gauge = %v, want 7", snap["queue.depth"])
	}
	// Re-registering replaces (restarted component re-binds its probe).
	r.RegisterFunc("queue.depth", func() float64 { return 42 })
	if r.Snapshot()["queue.depth"] != 42.0 {
		t.Fatal("RegisterFunc did not replace")
	}
}

func TestObsTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(Event{ElapsedUS: int64(i), Kind: EvDeliver})
	}
	evs := tr.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d, want 4", len(evs))
	}
	// The freshest window survives, in elapsed order.
	for i, ev := range evs {
		if ev.ElapsedUS != int64(6+i) {
			t.Fatalf("evs[%d].ElapsedUS = %d, want %d", i, ev.ElapsedUS, 6+i)
		}
	}
	if tr.Total() != 10 || tr.Dropped() != 6 {
		t.Fatalf("total=%d dropped=%d, want 10/6", tr.Total(), tr.Dropped())
	}
}

func TestObsEventJSONLRoundTrip(t *testing.T) {
	tr := NewTracer(16)
	tr.Packet(1500*time.Millisecond, EvDeliver, "relay.udp", "down", 1400, "")
	tr.Packet(2*time.Second, EvDrop, "relay.udp", "up", 512, "droptail")
	tr.Span(5*time.Second, EvFaultOpen, "faults", "blackout")
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("round trip: %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d: %+v != %+v", i, got[i], want[i])
		}
	}
	// Malformed line fails with its line number.
	if _, err := ReadJSONL(strings.NewReader("{\"kind\":\"drop\"}\nnot-json\n")); err == nil ||
		!strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-2 error, got %v", err)
	}
}

func TestObsTracerConcurrent(t *testing.T) {
	tr := NewTracer(256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Packet(time.Duration(i)*time.Millisecond, EvDeliver, "t", "up", w, "")
			}
		}(w)
	}
	wg.Wait()
	if tr.Total() != 4000 {
		t.Fatalf("total = %d, want 4000", tr.Total())
	}
	evs := tr.Snapshot()
	if len(evs) != 256 {
		t.Fatalf("ring = %d, want 256", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].ElapsedUS < evs[i-1].ElapsedUS {
			t.Fatal("snapshot not sorted by elapsed")
		}
	}
}

func TestObsLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger("test")
	lg.w = &buf
	lg.level.Store(int32(LevelWarn))
	lg.logf(LevelDebug, "hidden debug")
	lg.Infof("hidden info")
	lg.Warnf("visible warn")
	lg.Errorf("visible error")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Fatalf("below-level lines leaked: %q", out)
	}
	if !strings.Contains(out, "WARN  test: visible warn") ||
		!strings.Contains(out, "ERROR test: visible error") {
		t.Fatalf("missing leveled lines: %q", out)
	}

	// Fatalf exits 1 through the injected exit hook.
	code := -1
	lg.exit = func(c int) { code = c }
	lg.Fatalf("boom")
	if code != 1 {
		t.Fatalf("Fatalf exit code = %d, want 1", code)
	}
	if !strings.Contains(buf.String(), "boom") {
		t.Fatal("Fatalf message missing")
	}
}

func TestObsParseLevel(t *testing.T) {
	cases := map[string]Level{
		"debug": LevelDebug, "DEBUG": LevelDebug,
		"info": LevelInfo, "": LevelInfo, "bogus": LevelInfo,
		"warn": LevelWarn, "warning": LevelWarn,
		"error": LevelError,
	}
	for in, want := range cases {
		if got := ParseLevel(in); got != want {
			t.Errorf("ParseLevel(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestObsDebugServer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("relay.udp.up.in_pkts").Add(12)
	reg.RegisterFunc("relay.udp.timers.pending", func() float64 { return 3 })
	tr := NewTracer(16)
	tr.Span(time.Second, EvFaultOpen, "faults", "blackout")
	srv, err := ServeDebug("127.0.0.1:0", reg, tr, map[string]func() any{
		"schedule": func() any { return map[string]any{"digest": "abc123"} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	var vars map[string]any
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil {
		t.Fatal(err)
	}
	if vars["relay.udp.up.in_pkts"] != 12.0 || vars["relay.udp.timers.pending"] != 3.0 {
		t.Fatalf("vars = %v", vars)
	}

	evs, err := ReadJSONL(strings.NewReader(get("/debug/events")))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Kind != EvFaultOpen {
		t.Fatalf("events = %+v", evs)
	}

	if h := get("/debug/health"); !strings.Contains(h, "abc123") {
		t.Fatalf("health = %q", h)
	}
	// pprof index answers (profiles actually work).
	if p := get("/debug/pprof/"); !strings.Contains(p, "goroutine") {
		t.Fatalf("pprof index = %q", p)
	}
}

func TestObsTimelineRender(t *testing.T) {
	tr := NewTracer(0)
	// A faulted run: packets flow, a blackout window [5s, 5.8s) drops
	// traffic, a session starts and ends.
	tr.Span(0, EvSessionStart, "relay.udp", "client 127.0.0.1:9999")
	for s := 0; s < 10; s++ {
		at := time.Duration(s)*time.Second + 100*time.Millisecond
		if s == 5 {
			tr.Packet(at, EvDrop, "relay.udp", "up", 1400, "blackout")
			continue
		}
		tr.Packet(at, EvDeliver, "relay.udp", "up", 1400, "")
	}
	tr.Span(5*time.Second, EvFaultOpen, "faults", "blackout")
	tr.Span(5*time.Second+800*time.Millisecond, EvFaultClose, "faults", "blackout")
	tr.Span(9*time.Second, EvSessionEnd, "relay.udp", "client 127.0.0.1:9999")

	out := RenderTimeline(tr.Snapshot())
	for _, want := range []string{
		"per-second relay traffic",
		"fault windows (scheduled offsets):",
		"blackout     5.000s ..    5.800s (800 ms)",
		"session-start",
		"session-end",
		"# = window active",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
	// The strip marks second 5 as faulted and second 0 as clean.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "faults/s |") {
			strip := line[len("faults/s |"):]
			if strip[0] != '.' || strip[5] != '#' {
				t.Fatalf("fault strip wrong: %q", line)
			}
		}
	}

	if got := RenderTimeline(nil); !strings.Contains(got, "no events") {
		t.Fatalf("empty render = %q", got)
	}
}

func TestObsTimelineOpenWindow(t *testing.T) {
	// A run killed inside a fault window: the open span renders without
	// a close offset instead of being dropped.
	tr := NewTracer(0)
	tr.Packet(time.Second, EvDeliver, "relay.udp", "down", 100, "")
	tr.Span(2*time.Second, EvFaultOpen, "faults", "restart")
	out := RenderTimeline(tr.Snapshot())
	if !strings.Contains(out, "open at end of trace") {
		t.Fatalf("open window not rendered:\n%s", out)
	}
}

func BenchmarkObsCounter(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkObsHistogram(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench", MbpsBuckets)
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 300))
	}
}

func BenchmarkObsTracerRecord(b *testing.B) {
	tr := NewTracer(8192)
	for i := 0; i < b.N; i++ {
		tr.Packet(time.Duration(i), EvDeliver, "relay.udp", "up", 1400, "")
	}
}

func ExampleRegistry_WriteJSON() {
	r := NewRegistry()
	r.Counter("pkts").Add(3)
	var buf bytes.Buffer
	r.WriteJSON(&buf)
	fmt.Print(buf.String())
	// Output:
	// {
	//   "pkts": 3
	// }
}
