package dataset

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"satcell/internal/channel"
)

// collectStream runs StreamContext and checks what a streamed campaign
// promises on the way: drives arrive once each in index order, and a
// quarantined drive carries no observations and no tests. It returns
// the emitted drives and tests (copied, as an emit must) and the
// generator's summary.
func collectStream(t *testing.T, cfg Config) ([]Drive, []Test, *Dataset) {
	t.Helper()
	var drives []Drive
	var tests []Test
	sum, err := StreamContext(context.Background(), cfg, func(ds *Dataset, di int, ts []Test) error {
		if di != len(drives) {
			return fmt.Errorf("drive %d emitted after %d drives", di, len(drives))
		}
		d := ds.Drives[di]
		if ds.DriveQuarantined(di) && (d.Observed != nil || len(ts) != 0) {
			return fmt.Errorf("quarantined drive %d emitted with %d networks and %d tests", di, len(d.Observed), len(ts))
		}
		drives = append(drives, d)
		tests = append(tests, ts...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return drives, tests, sum
}

// TestStreamMatchesGenerate holds the streamed generator to
// GenerateContext at every worker count, for a clean campaign and for
// one with a quarantined drive: the same drives and tests in the same
// order, and a summary that keeps the totals, the quarantine ledger,
// each drive's route and state and each test's scalar fields.
func TestStreamMatchesGenerate(t *testing.T) {
	clean := Config{Seed: 7, Scale: 0.05}
	faulted := Config{Seed: 7, Scale: 0.05, Degrade: true,
		BeforeUnit: func(drive int, n channel.NetworkID) error {
			if drive == 1 && n == channel.ATT {
				panic("injected unit failure")
			}
			return nil
		}}
	for name, base := range map[string]Config{"clean": clean, "quarantine": faulted} {
		want := Generate(base)
		if name == "quarantine" && (len(want.Quarantined) != 1 || want.Quarantined[0].Drive != 1) {
			t.Fatalf("quarantine ledger %+v, want drive 1", want.Quarantined)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				cfg := base
				cfg.Workers = workers
				drives, tests, sum := collectStream(t, cfg)
				if !reflect.DeepEqual(drives, want.Drives) {
					t.Fatal("streamed drives differ from GenerateContext's")
				}
				if !reflect.DeepEqual(tests, want.Tests) {
					t.Fatal("streamed tests differ from GenerateContext's")
				}
				if sum.Seed != want.Seed || sum.TotalKm != want.TotalKm || sum.TotalTestMin != want.TotalTestMin ||
					!reflect.DeepEqual(sum.Networks, want.Networks) || !reflect.DeepEqual(sum.Quarantined, want.Quarantined) {
					t.Fatalf("summary %+v does not match the dataset's totals", sum)
				}
				if len(sum.Drives) != len(want.Drives) || len(sum.Tests) != len(want.Tests) {
					t.Fatalf("summary holds %d drives and %d tests, want %d and %d",
						len(sum.Drives), len(sum.Tests), len(want.Drives), len(want.Tests))
				}
				for i, d := range sum.Drives {
					if d.Route != want.Drives[i].Route || d.State != want.Drives[i].State || d.Fixes != nil || d.Observed != nil {
						t.Fatalf("summary drive %d = %s/%s with %d fixes, want %s/%s with none",
							i, d.Route, d.State, len(d.Fixes), want.Drives[i].Route, want.Drives[i].State)
					}
				}
				for i, got := range sum.Tests {
					w := want.Tests[i]
					w.Records, w.Series, w.RTTsMs = nil, nil, nil
					if !reflect.DeepEqual(got, w) {
						t.Fatalf("summary test %d = %+v, want the scalars %+v", i, got, w)
					}
				}
			})
		}
	}
}

// TestStreamWindowBound checks the in-flight bound deterministically:
// a unit of drive d may start only once the emit of drive d-workers-1
// has returned. The first emit blocks until the pool has reached the
// edge of the window, so a generator that ran ahead of it would start
// a unit of the next drive meanwhile and trip the hook.
func TestStreamWindowBound(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var returned atomic.Int64 // emits that have returned
			reached := make(chan struct{})
			var once sync.Once
			cfg := Config{Seed: 7, Scale: 0.15, Workers: workers,
				Scenario: &Scenario{Networks: []channel.NetworkID{channel.ATT, channel.StarlinkRoam}},
				BeforeUnit: func(d int, n channel.NetworkID) error {
					if limit := int(returned.Load()) + workers; d > limit {
						t.Errorf("unit (%d, %s) started while drive %d was the last one allowed", d, n, limit)
					}
					if d == workers {
						once.Do(func() { close(reached) })
					}
					return nil
				}}
			drives := 0
			_, err := StreamContext(context.Background(), cfg, func(_ *Dataset, di int, _ []Test) error {
				defer returned.Store(int64(di + 1))
				if di == 0 {
					select {
					case <-reached:
					case <-time.After(30 * time.Second):
						return fmt.Errorf("no unit of drive %d started while drive 0 was emitted", workers)
					}
					// Give a generator without a window time to overrun it.
					time.Sleep(20 * time.Millisecond)
				}
				drives++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if drives < workers+2 {
				t.Fatalf("campaign has %d drives; the window of %d workers needs at least %d", drives, workers, workers+2)
			}
		})
	}
}

// TestStreamHeapBounded is the generate stage's scale gate, the
// counterpart of core's TestStreamingTenXCorpusBoundedMemory: a
// paper-scale campaign streams through an emit that keeps nothing, and
// the live heap at every emit stays far below the campaign's in-memory
// record footprint.
func TestStreamHeapBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale campaign skipped in -short mode")
	}
	// A small campaign first builds the lazily initialised model tables,
	// so the growth below is the campaign's own.
	Generate(Config{Seed: 7, Scale: 0.02, Workers: 2})
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	var peak uint64
	records := 0
	_, err := StreamContext(context.Background(), Config{Seed: 7, Scale: 1.0, Workers: 2},
		func(ds *Dataset, di int, _ []Test) error {
			for _, recs := range ds.Drives[di].Observed {
				records += len(recs)
			}
			// Collect first so the probe sees live data (drives in
			// flight), not garbage the GC has yet to reclaim.
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapAlloc)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	corpus := uint64(records) * uint64(unsafe.Sizeof(channel.Record{}))
	var growth uint64
	if peak > base.HeapAlloc {
		growth = peak - base.HeapAlloc
	}
	// GenerateContext holds every record at once. The stream holds the
	// drive being emitted, at most workers more, and the plan's fixes
	// (about a tenth of the records' bytes).
	if growth > corpus/2 {
		t.Errorf("peak heap growth %d bytes exceeds half the %d-byte record footprint (not streaming?)", growth, corpus)
	}
	t.Logf("%d records (%d bytes in memory), peak heap growth %d bytes", records, corpus, growth)
}

// TestWindowAliasesFilter holds Window to the brute-force filter it
// replaced over every test of a generated campaign: the same records,
// aliasing the drive's observations, with no spare capacity for an
// append to overwrite the records after the window.
func TestWindowAliasesFilter(t *testing.T) {
	ds := Generate(Config{Seed: 7, Scale: 0.05})
	for i := range ds.Tests {
		ts := &ds.Tests[i]
		recs := ds.Drives[ts.Drive].Observed[ts.Network]
		from, to := ts.Start, ts.Start+ts.Duration
		var want []channel.Record
		for _, r := range recs {
			if r.Env.At >= from && r.Env.At < to {
				want = append(want, r)
			}
		}
		got := Window(recs, from, to)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("test %d: window holds %d records, the filter %d (or they differ)", ts.ID, len(got), len(want))
		}
		if !reflect.DeepEqual(ts.Records, got) {
			t.Fatalf("test %d: Records are not its window", ts.ID)
		}
		if cap(got) != len(got) {
			t.Fatalf("test %d: window has capacity %d beyond its %d records", ts.ID, cap(got), len(got))
		}
		if len(got) > 0 {
			off := (uintptr(unsafe.Pointer(&got[0])) - uintptr(unsafe.Pointer(&recs[0]))) / unsafe.Sizeof(recs[0])
			if off >= uintptr(len(recs)) || &recs[off] != &got[0] {
				t.Fatalf("test %d: window does not alias the drive's records", ts.ID)
			}
		}
	}
}
