package mptcp

import (
	"satcell/internal/tcp"
)

// Scheduler mediates which subflow may take the next data chunk. The
// transfer model is pull-based: a subflow with congestion-window space
// asks for data, and the scheduler allows or refuses. Refusing a slower
// subflow while a faster one still has room reproduces push-based
// scheduler behaviour.
type Scheduler interface {
	Name() string
	// Allow reports whether subflow idx may send the next chunk now.
	Allow(c *Conn, idx int) bool
}

// RoundRobin spreads chunks evenly over subflows with space.
type RoundRobin struct{ last int }

// NewRoundRobin returns a round-robin scheduler.
func NewRoundRobin() *RoundRobin { return &RoundRobin{last: -1} }

// Name implements Scheduler.
func (r *RoundRobin) Name() string { return "roundrobin" }

// Allow implements Scheduler.
func (r *RoundRobin) Allow(c *Conn, idx int) bool {
	// The next-in-rotation subflow with space gets the chunk; a
	// requesting subflow is allowed if no earlier-in-rotation subflow
	// also has space.
	n := len(c.subflows)
	for off := 1; off <= n; off++ {
		cand := (r.last + off) % n
		if !hasSpace(c.subflows[cand]) {
			continue
		}
		if cand == idx {
			r.last = idx
			return true
		}
		return false
	}
	return false
}

// MinRTT is the Linux default scheduler: always prefer the lowest-SRTT
// subflow that has window space.
type MinRTT struct{}

// NewMinRTT returns a MinRTT scheduler.
func NewMinRTT() *MinRTT { return &MinRTT{} }

// Name implements Scheduler.
func (m *MinRTT) Name() string { return "minrtt" }

// Allow implements Scheduler.
func (m *MinRTT) Allow(c *Conn, idx int) bool {
	if !hasSpace(c.subflows[idx]) {
		return false
	}
	my := c.subflows[idx].SRTT()
	for i, s := range c.subflows {
		if i == idx || !hasSpace(s) {
			continue
		}
		o := s.SRTT()
		// Prefer the other subflow when it is strictly faster (an
		// unmeasured subflow counts as fastest to bootstrap it).
		if o < my || (o == my && i < idx) {
			return false
		}
	}
	return true
}

// BLEST implements the blocking-estimation scheduler of Ferlin et al.
// (IFIP Networking 2016), the kernel v5.19 default the paper describes:
// like MinRTT, but before sending on a slower subflow it estimates
// whether that data would still be in flight when the faster subflow
// could have delivered everything ahead of it — if so, sending on the
// slow subflow would block the connection-level send window
// (transport-layer head-of-line blocking) and BLEST waits instead.
type BLEST struct{}

// blestLambda scales BLEST's blocking estimate; 1.0 is the paper's
// default.
const blestLambda = 1.0

// NewBLEST returns a BLEST scheduler.
func NewBLEST() *BLEST { return &BLEST{} }

// Name implements Scheduler.
func (b *BLEST) Name() string { return "blest" }

// Allow implements Scheduler.
func (b *BLEST) Allow(c *Conn, idx int) bool {
	if !hasSpace(c.subflows[idx]) {
		return false
	}
	me := c.subflows[idx]
	myRTT := me.SRTT()

	fastest := idx
	fastRTT := myRTT
	for i, s := range c.subflows {
		if i == idx {
			continue
		}
		if rtt := s.SRTT(); rtt > 0 && (rtt < fastRTT || fastRTT == 0) {
			fastest, fastRTT = i, rtt
		}
		// Strictly-faster subflow with space wins outright (MinRTT rule).
		if hasSpace(s) && s.SRTT() < myRTT {
			return false
		}
	}
	if fastest == idx || fastRTT <= 0 || myRTT <= 0 {
		return true // we are the fastest (or nothing is measured yet)
	}

	// Blocking estimate: while one chunk spends rttS on the slow
	// subflow, the fast subflow could inject rttS/rttF windows of
	// cwndF bytes (allowing one window of growth). If the connection
	// send window cannot hold both, sending now would block the fast
	// subflow later: wait.
	fast := c.subflows[fastest]
	rttRatio := float64(myRTT) / float64(fastRTT)
	xFast := float64(fast.Cwnd()) * (rttRatio + 1)            // bytes fast could need
	sendWindow := float64(c.connSpace() + me.BytesInFlight()) // window available to this decision
	need := blestLambda*xFast + float64(me.BytesInFlight()+tcp.MSS)
	return sendWindow >= need
}
