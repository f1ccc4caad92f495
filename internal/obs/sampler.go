package obs

import (
	"sync"
	"time"
)

// Sampler periodically snapshots a metrics registry into the flight
// recorder, so a replayed TELEMETRY journal carries the counter curves
// (rows/s, shards done, retries) alongside the span tree. One goroutine
// per sampler; Stop takes a final snapshot and waits for the goroutine
// to exit, so samplers never leak past the run.
type Sampler struct {
	quit chan struct{}
	done chan struct{}
	once sync.Once
}

// StartSampler samples reg into rec every interval. Returns nil (a
// no-op sampler) when either side is missing or the interval is not
// positive — sampling is an observer, never a requirement.
func StartSampler(rec *FlightRecorder, reg *Registry, interval time.Duration) *Sampler {
	if rec == nil || reg == nil || interval <= 0 {
		return nil
	}
	s := &Sampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				rec.RecordMetrics(reg.Snapshot())
			case <-s.quit:
				// Final snapshot on the way out: the journal's last metrics
				// record is the run's closing state.
				rec.RecordMetrics(reg.Snapshot())
				return
			}
		}
	}()
	return s
}

// Stop takes a final snapshot and blocks until the sampler goroutine
// has exited. Safe on nil and idempotent.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.once.Do(func() { close(s.quit) })
	<-s.done
}
