package dataset

import (
	"sync"
	"sync/atomic"
)

// forEachIndexWorker runs fn(w, 0), ..., fn(w, n-1) across at most
// workers goroutines, pulling indices from an atomic counter so uneven
// work items (short urban drives vs long highway drives) balance out.
// Every fn(w, i) must be independent of the others: it may only read
// shared inputs and write state owned by index i. The worker slot id w
// (0-based, stable for the goroutine's lifetime) lets callers keep
// per-worker accounting without shared state; it must not influence
// the work itself, since determinism requires fn's output to depend
// only on i. With workers <= 1 the call degenerates to a plain serial
// loop on the calling goroutine.
func forEachIndexWorker(workers, n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}
