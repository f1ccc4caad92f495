package campaign

import (
	"sync"
	"sync/atomic"
	"time"
)

// watchdog watches a monotonically non-decreasing progress reading and
// cancels the stage when it stops moving for a full window. It decides
// on progress deltas only — never on absolute rates — so a slow machine
// is not a stalled machine.
type watchdog struct {
	stalled atomic.Bool
	once    sync.Once
	quit    chan struct{}
	done    chan struct{}
}

// startWatchdog polls progress every window/4 and calls cancel once the
// reading has not moved for >= window (the caller wraps cancel when it
// wants a post-mortem captured first). Each observed move is reported
// to status, so /debug/health can publish the last-progress age the
// watchdog is deciding on. The caller must call stop() — which also
// reports whether the dog fired — before inspecting the stage's error.
func startWatchdog(cancel func(), progress func() int64, window time.Duration, status *Status) *watchdog {
	w := &watchdog{quit: make(chan struct{}), done: make(chan struct{})}
	poll := window / 4
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	go func() {
		defer close(w.done)
		ticker := time.NewTicker(poll)
		defer ticker.Stop()
		last := progress()
		lastMove := time.Now()
		for {
			select {
			case <-w.quit:
				return
			case <-ticker.C:
				if cur := progress(); cur != last {
					last, lastMove = cur, time.Now()
					status.noteProgress()
					continue
				}
				if time.Since(lastMove) >= window {
					w.stalled.Store(true)
					cancel()
					return
				}
			}
		}
	}()
	return w
}

// stop halts the watchdog, waits for its goroutine to exit, and reports
// whether it declared a stall. Idempotent.
func (w *watchdog) stop() bool {
	w.once.Do(func() { close(w.quit) })
	<-w.done
	return w.stalled.Load()
}
