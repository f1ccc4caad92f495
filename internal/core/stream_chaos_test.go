package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"satcell/internal/faults"
	"satcell/internal/obs"
	"satcell/internal/store"
	"satcell/internal/testutil"
)

// The disk-fault chaos suite: streaming runs over a store.FaultFS with
// scripted I/O failures. The locked invariant is that a lenient run
// quarantines exactly the injected-bad shards and renders every figure
// byte-identically to a clean run over the same corpus minus those
// drives — at every worker count, under the race detector.

// chaosWorkerCounts returns the pool sizes to sweep; the CI chaos job
// narrows the default sweep via SATCELL_STREAM_WORKERS=1,4.
func chaosWorkerCounts(t *testing.T) []int {
	env := os.Getenv("SATCELL_STREAM_WORKERS")
	if env == "" {
		return streamWorkerCounts
	}
	var out []int
	for _, s := range strings.Split(env, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			t.Fatalf("SATCELL_STREAM_WORKERS=%q: bad worker count %q", env, s)
		}
		out = append(out, n)
	}
	return out
}

// chaosVictims picks the drives the fault schedule poisons.
func chaosVictims(t *testing.T, drives int) []int {
	if drives < 3 {
		t.Fatalf("fixture has %d drives; chaos suite needs >= 3", drives)
	}
	return []int{1, drives - 1}
}

// permanentReadErrSpec scripts unlimited read errors on every trace
// shard of the victim drives (an unlimited rule never exhausts, so
// retries cannot heal it: the shard must be quarantined).
func permanentReadErrSpec(victims []int) string {
	rules := make([]string, len(victims))
	for i, d := range victims {
		rules[i] = fmt.Sprintf("read-err:drive%03d_*", d)
	}
	return strings.Join(rules, ";")
}

// dropDrives filters a ShardSource's plan down to the refs whose drive
// is not listed — the "clean corpus minus those drives" baseline.
type dropDrives struct {
	inner ShardSource
	drop  map[int]bool
}

func (f *dropDrives) Info() (SourceInfo, error) { return f.inner.Info() }

func (f *dropDrives) Load(ref ShardRef) (*Shard, error) { return f.inner.Load(ref) }

func (f *dropDrives) Plan() ([]ShardRef, error) {
	refs, err := f.inner.Plan()
	if err != nil {
		return nil, err
	}
	kept := refs[:0]
	for _, ref := range refs {
		if !f.drop[ref.Drive] {
			kept = append(kept, ref)
		}
	}
	return kept, nil
}

// TestChaosLenientQuarantinesExactlyInjectedShards is the acceptance
// invariant: permanent read errors on two drives' shards quarantine
// exactly those drives (itemised, transient class, retries exhausted)
// and the figures match a clean scan of the corpus minus those drives,
// byte for byte, at every worker count.
func TestChaosLenientQuarantinesExactlyInjectedShards(t *testing.T) {
	ds, dir := streamFixture(t)
	victims := chaosVictims(t, len(ds.Drives))
	sched, err := faults.ParseIOSpec(permanentReadErrSpec(victims), 17)
	if err != nil {
		t.Fatal(err)
	}
	drop := map[int]bool{}
	for _, d := range victims {
		drop[d] = true
	}

	// Baseline: clean FS, plan filtered to the surviving drives.
	cleanSrc, err := OpenStoreSourceFS(nil, dir, store.Lenient)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := StreamAnalyzeContext(context.Background(), &dropDrives{inner: cleanSrc, drop: drop}, StreamOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(baseline.Figures())

	for _, workers := range chaosWorkerCounts(t) {
		reg := obs.NewRegistry()
		src, err := OpenStoreSourceFS(store.NewFaultFS(nil, sched), dir, store.Lenient)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sa, err := StreamAnalyzeContext(context.Background(), src, StreamOptions{
			Workers: workers, Metrics: reg,
		})
		if err != nil {
			t.Fatalf("workers=%d: lenient run aborted: %v", workers, err)
		}
		comp := sa.Completeness()
		if comp.Complete() {
			t.Fatalf("workers=%d: run claims completeness despite injected faults", workers)
		}
		if comp.ShardsQuarantined != len(victims) || len(comp.Quarantined) != len(victims) {
			t.Fatalf("workers=%d: quarantined %d shards (%d itemised), want %d:\n%v",
				workers, comp.ShardsQuarantined, len(comp.Quarantined), len(victims), comp.Err())
		}
		for i, f := range comp.Quarantined {
			if f.Drive != victims[i] {
				t.Errorf("workers=%d: quarantine %d is drive %d, want %d", workers, i, f.Drive, victims[i])
			}
			if f.Class != FailTransient {
				t.Errorf("workers=%d: drive %d classed %q, want %q (read errors come from the disk)",
					workers, f.Drive, f.Class, FailTransient)
			}
			if want := 1 + maxRetries; f.Attempts != want {
				t.Errorf("workers=%d: drive %d took %d attempts, want %d (retries exhausted)",
					workers, f.Drive, f.Attempts, want)
			}
			if !strings.Contains(f.Err, "injected") {
				t.Errorf("workers=%d: quarantine error %q does not surface the injected fault", workers, f.Err)
			}
		}
		if comp.ShardsScanned != len(ds.Drives)-len(victims) {
			t.Errorf("workers=%d: scanned %d shards, want %d", workers, comp.ShardsScanned, len(ds.Drives)-len(victims))
		}
		if comp.Retries == 0 || comp.ShardsRetried != len(victims) {
			t.Errorf("workers=%d: retried %d shards (%d reloads); transient faults should be retried before quarantine",
				workers, comp.ShardsRetried, comp.Retries)
		}
		if got := reg.Counter("stream.quarantined").Value(); got != int64(len(victims)) {
			t.Errorf("workers=%d: stream.quarantined = %d, want %d", workers, got, len(victims))
		}
		if got := reg.Counter("stream.retries").Value(); got != int64(comp.Retries) {
			t.Errorf("workers=%d: stream.retries = %d, certificate says %d", workers, got, comp.Retries)
		}
		if got := renderAll(sa.Figures()); got != want {
			t.Errorf("workers=%d: degraded figures differ from clean corpus minus quarantined drives", workers)
		}
	}
}

// TestChaosTransientFaultHealsViaRetry: a count-limited fault (each
// victim file's first read fails, then the file behaves) must be
// absorbed by the retry loop — the run completes, certifies the
// retries, and renders byte-identically to an undisturbed run.
func TestChaosTransientFaultHealsViaRetry(t *testing.T) {
	ds, dir := streamFixture(t)
	cleanSrc, err := OpenStoreSourceFS(nil, dir, store.Lenient)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := StreamAnalyzeContext(context.Background(), cleanSrc, StreamOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(clean.Figures())

	// x2 on one shard file: the store's BOM-sniffing Peek absorbs a
	// single leading read error inside bufio, so two are needed to fail
	// the first Load attempt; the retry then finds the budget exhausted.
	sched, err := faults.ParseIOSpec("read-err:drive001_*_RM.csv:x2", 23)
	if err != nil {
		t.Fatal(err)
	}
	src, err := OpenStoreSourceFS(store.NewFaultFS(nil, sched), dir, store.Lenient)
	if err != nil {
		t.Fatal(err)
	}
	sink := &memSink{}
	root := obs.NewFlightRecorder(sink, 1).Begin(obs.SpanStage, "analyze")
	sa, err := StreamAnalyzeContext(context.Background(), src, StreamOptions{Workers: 2, Span: root})
	if err != nil {
		t.Fatal(err)
	}
	root.End(obs.SpanOK, "")
	comp := sa.Completeness()
	if !comp.Complete() {
		t.Fatalf("transient fault was not healed: %v", comp.Err())
	}
	if comp.ShardsRetried != 1 || comp.Retries == 0 {
		t.Errorf("certificate: %d shards retried (%d reloads), want the one faulted drive", comp.ShardsRetried, comp.Retries)
	}
	if comp.ShardsScanned != len(ds.Drives) {
		t.Errorf("scanned %d shards, want all %d", comp.ShardsScanned, len(ds.Drives))
	}
	if got := renderAll(sa.Figures()); got != want {
		t.Error("healed run renders differently from an undisturbed run")
	}

	// The healed shard's span is the only record of why it was reloaded:
	// its detail names each reload's injected read error.
	log, err := obs.ReplayTelemetry(sink.entries)
	if err != nil {
		t.Fatal(err)
	}
	var retried []*obs.ReplaySpan
	log.Walk(func(s *obs.ReplaySpan) {
		if s.Kind == obs.SpanShard && s.Outcome != obs.SpanOK {
			retried = append(retried, s)
		}
	})
	if len(retried) != 1 {
		t.Fatalf("%d shard spans did not end ok, want the one healed shard", len(retried))
	}
	sp := retried[0]
	wantDetail := fmt.Sprintf("ok after %d attempts; attempt 1: ", comp.Retries+1)
	if sp.Outcome != obs.SpanRetried || !strings.HasPrefix(sp.Detail, wantDetail) ||
		!strings.Contains(sp.Detail, "read ") || !strings.Contains(sp.Detail, "_RM.csv") ||
		!strings.Contains(sp.Detail, store.ErrInjected.Error()) {
		t.Errorf("healed shard span %s ended %s %q, want retried with a detail starting %q that names the injected read error",
			sp.Name, sp.Outcome, sp.Detail, wantDetail)
	}
}

// memSink is an in-memory TelemetrySink: it keeps each record as the
// JSON line a TELEMETRY journal would hold.
type memSink struct {
	mu      sync.Mutex
	entries []json.RawMessage
}

func (s *memSink) Append(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.entries = append(s.entries, b)
	s.mu.Unlock()
	return nil
}

func (s *memSink) AppendUnsynced(v any) error { return s.Append(v) }

// TestChaosStrictAbortsWithItemizedError keeps the original contract:
// in strict mode the first failing shard aborts the whole run with an
// error naming the shard and the injected fault.
func TestChaosStrictAbortsWithItemizedError(t *testing.T) {
	_, dir := streamFixture(t)
	sched, err := faults.ParseIOSpec("read-err:drive001_*", 29)
	if err != nil {
		t.Fatal(err)
	}
	src, err := OpenStoreSourceFS(store.NewFaultFS(nil, sched), dir, store.Strict)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := StreamAnalyzeContext(context.Background(), src, StreamOptions{Workers: 4, Strict: true})
	if err == nil {
		t.Fatalf("strict run over faulted corpus succeeded: %v", sa.Completeness())
	}
	if !errors.Is(err, store.ErrInjected) {
		t.Errorf("strict error does not wrap the injected fault: %v", err)
	}
	if !strings.Contains(err.Error(), "drive001") {
		t.Errorf("strict error does not name the failing shard: %v", err)
	}
}

// cancelAfterSource cancels a context once n shards have loaded —
// a SIGINT landing mid-campaign.
type cancelAfterSource struct {
	inner  ShardSource
	cancel context.CancelFunc
	after  int32
	loads  atomic.Int32
}

func (c *cancelAfterSource) Info() (SourceInfo, error) { return c.inner.Info() }

func (c *cancelAfterSource) Plan() ([]ShardRef, error) { return c.inner.Plan() }

func (c *cancelAfterSource) Load(ref ShardRef) (*Shard, error) {
	if c.loads.Add(1) == c.after {
		c.cancel()
	}
	return c.inner.Load(ref)
}

// TestChaosMidStreamCancellationLeaksNothing: cancelling the context
// mid-campaign surfaces context.Canceled and every supervisor goroutine
// (producer and workers) exits.
func TestChaosMidStreamCancellationLeaksNothing(t *testing.T) {
	_, dir := streamFixture(t)
	baseline := testutil.GoroutineBaseline()
	for _, workers := range chaosWorkerCounts(t) {
		src, err := OpenStoreSourceFS(nil, dir, store.Lenient)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		wrapped := &cancelAfterSource{inner: src, cancel: cancel, after: 2}
		_, err = StreamAnalyzeContext(ctx, wrapped, StreamOptions{Workers: workers})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: cancelled run returned %v, want context.Canceled", workers, err)
		}
	}
	testutil.SettleGoroutines(t, baseline)
}

// poisonSource panics while loading one shard — a poison shard must be
// quarantined by the worker's panic fence, not kill the process.
type poisonSource struct {
	inner ShardSource
	drive int
}

func (p *poisonSource) Info() (SourceInfo, error) { return p.inner.Info() }

func (p *poisonSource) Plan() ([]ShardRef, error) { return p.inner.Plan() }

func (p *poisonSource) Load(ref ShardRef) (*Shard, error) {
	if ref.Drive == p.drive {
		panic(fmt.Sprintf("poison shard drive %d", ref.Drive))
	}
	return p.inner.Load(ref)
}

func TestChaosPoisonShardIsQuarantined(t *testing.T) {
	ds, _ := streamFixture(t)
	reg := obs.NewRegistry()
	sa, err := StreamAnalyzeContext(context.Background(), &poisonSource{inner: &DatasetSource{DS: ds}, drive: 2},
		StreamOptions{Workers: 2, Metrics: reg})
	if err != nil {
		t.Fatalf("lenient run died on a poison shard: %v", err)
	}
	comp := sa.Completeness()
	if comp.ShardsQuarantined != 1 || comp.RecoveredPanics != 1 {
		t.Fatalf("poison shard: %d quarantined, %d recovered panics, want 1/1:\n%v",
			comp.ShardsQuarantined, comp.RecoveredPanics, comp.Err())
	}
	q := comp.Quarantined[0]
	if q.Drive != 2 || q.Class != FailPanic || q.Attempts != 1 {
		t.Errorf("poison quarantine %+v, want drive 2, class %q, 1 attempt (panics are not retried)", q, FailPanic)
	}
	if got := reg.Counter("stream.recovered_panics").Value(); got != 1 {
		t.Errorf("stream.recovered_panics = %d, want 1", got)
	}
	if comp.Err() == nil || !strings.Contains(comp.Err().Error(), "poison shard drive 2") {
		t.Errorf("certificate error does not carry the panic message: %v", comp.Err())
	}
}

// TestChaosStrictPoisonAborts: in strict mode a poison shard is fatal,
// but still an error — never an escaped panic.
func TestChaosStrictPoisonAborts(t *testing.T) {
	ds, _ := streamFixture(t)
	_, err := StreamAnalyzeContext(context.Background(), &poisonSource{inner: &DatasetSource{DS: ds}, drive: 0},
		StreamOptions{Workers: 2, Strict: true})
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("strict poison run returned %v, want a panic-converted error", err)
	}
}
