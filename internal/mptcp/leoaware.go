package mptcp

import (
	"time"
)

// LEOAware is a Starlink-aware scheduler prototype realising the
// paper's future-work proposal (§6: "considering the specific usage
// scenarios and characteristics of the two network types, further
// improvements can be made to future MPTCP scheduler design, such as
// reducing throughput fluctuations").
//
// It behaves like MinRTT, with one LEO-specific rule: Starlink
// reallocates satellite/beam assignments on a fixed 15-second epoch
// grid, and throughput regularly dips or drops out right after a
// boundary. Inside a guard window around each predicted boundary the
// scheduler declines to place new data on the satellite subflow, so the
// data that would straddle the reallocation gap (and head-of-line block
// the connection) rides the cellular path instead.
type LEOAware struct{}

// The satellite subflow LEOAware holds, and its epoch grid.
const (
	// leoSatIdx is the index of the satellite subflow within the
	// connection's path list.
	leoSatIdx = 0
	// leoEpoch is Starlink's reallocation interval.
	leoEpoch = 15 * time.Second
	// leoGuard is the no-schedule window straddling each boundary
	// (leoGuard/2 before and after).
	leoGuard = 2 * time.Second
)

// NewLEOAware builds the scheduler for a connection whose satellite
// path comes first. It reads the virtual time from the connection it
// schedules.
func NewLEOAware() *LEOAware { return &LEOAware{} }

// Name implements Scheduler.
func (l *LEOAware) Name() string { return "leo-aware" }

// nearBoundary reports whether now falls inside the guard window of an
// epoch boundary.
func (l *LEOAware) nearBoundary(now time.Duration) bool {
	phase := now % leoEpoch
	const half = leoGuard / 2
	return phase < half || phase > leoEpoch-half
}

// Allow implements Scheduler.
func (l *LEOAware) Allow(c *Conn, idx int) bool {
	if !hasSpace(c.subflows[idx]) {
		return false
	}
	hold := l.nearBoundary(c.eng.Now())
	if idx == leoSatIdx && hold {
		// Hold satellite traffic across the predicted reallocation;
		// the cellular subflow keeps the connection moving.
		return false
	}
	// MinRTT among the remaining eligible subflows.
	my := c.subflows[idx].SRTT()
	for i, s := range c.subflows {
		if i == idx || !hasSpace(s) {
			continue
		}
		if i == leoSatIdx && hold {
			continue // the satellite path is on hold: it cannot outrank us
		}
		o := s.SRTT()
		if o < my || (o == my && i < idx) {
			return false
		}
	}
	return true
}
