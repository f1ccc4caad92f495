package dataset

import (
	"sync"
	"sync/atomic"
)

// startPool runs fn(w, 0), ..., fn(w, n-1) on at most workers
// goroutines and returns at once; the caller goes on with other work
// (generation emits finished drives meanwhile). Indices come from an
// atomic counter, so uneven work items (short urban drives vs long
// highway drives) balance out and are started in index order. Every
// fn(w, i) must be independent of the others: it may only read shared
// inputs and write state owned by index i. The worker slot id w
// (0-based, stable for the goroutine's lifetime) lets callers keep
// per-worker accounting without shared state; it must not influence
// the work itself, since determinism requires fn's output to depend
// only on i.
//
// A panic in fn ends its worker and calls stop, so the caller can wind
// the others down. wait blocks until every worker has exited and
// returns the first panic value (nil if there was none) for the caller
// to re-raise on its own goroutine.
func startPool(workers, n int, fn func(worker, i int), stop func()) (wait func() any) {
	workers = max(min(workers, n), 1)
	var next atomic.Int64
	var wg sync.WaitGroup
	var once sync.Once
	var fault any
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					once.Do(func() { fault = r })
					stop()
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}()
	}
	return func() any {
		wg.Wait()
		return fault
	}
}
