// Package mptcp implements a discrete-event MPTCP model over the tcp
// package's subflows: a connection-level data scheduler (Round-Robin,
// MinRTT, BLEST), LIA coupled congestion control (RFC 6356), and a
// shared connection-level receive buffer whose size reproduces the
// paper's central §6 finding — with default buffers MPTCP over Starlink
// + cellular barely helps (head-of-line blocking), while buffers sized
// past 10x the bandwidth-delay product unlock 30-66 % gains over the
// better single path.
package mptcp

import (
	"fmt"
	"slices"
	"time"

	"satcell/internal/emu"
	"satcell/internal/seqq"
	"satcell/internal/stats"
	"satcell/internal/tcp"
)

// Config tunes an MPTCP connection.
type Config struct {
	// RcvBuf is the connection-level receive buffer shared by all
	// subflows. Default 6 MB ("untuned" Linux-like default); the paper
	// tunes it above 10x BDP.
	RcvBuf int
	// Scheduler picks the subflow for each chunk; default MinRTT (with
	// BLEST being the kernel default the paper describes, available as
	// NewBLEST).
	Scheduler Scheduler
	// Coupled enables LIA coupled congestion control across subflows;
	// otherwise each subflow runs its own NewReno.
	Coupled bool
	// Subflow is the base configuration applied to every subflow
	// (CC is overridden when Coupled is set; RcvBuf/OnDeliver/OnRTO
	// are managed by the connection).
	Subflow tcp.Config
	// Window is the goodput sampling interval; default 1 s.
	Window time.Duration
}

// Conn is a multipath connection downloading bulk data over several
// emulated paths at once.
type Conn struct {
	eng      *emu.Engine
	cfg      Config
	subflows []*tcp.Conn
	sched    Scheduler
	group    *liaGroup

	// Connection-level sender state.
	sndNxtDSN int64
	assigned  []seqq.FIFO[tcp.Chunk] // per subflow: outstanding chunks in assignment order
	reinject  []reinjectEntry        // chunks rescued from a failing subflow
	rtoStreak []int                  // consecutive RTOs per subflow since last delivery

	// Connection-level receiver state.
	rcvNxtDSN int64
	reasm     seqq.Sorted[int] // chunk lengths above rcvNxtDSN, ascending by DSN
	reasmByte int

	// Metrics.
	delivered      int64
	goodput        stats.TimeSeries
	curWindowStart time.Duration
	curWindowBytes int64
}

// NewConn builds a multipath download with one subflow per path. Flow
// ids flowBase, flowBase+1, ... are used on the respective paths.
func NewConn(eng *emu.Engine, paths []*emu.DuplexPath, flowBase int, cfg Config) *Conn {
	if len(paths) == 0 {
		panic("mptcp: need at least one path")
	}
	if cfg.RcvBuf <= 0 {
		cfg.RcvBuf = 6 << 20
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = NewMinRTT()
	}
	if cfg.Window <= 0 {
		cfg.Window = time.Second
	}
	c := &Conn{
		eng:      eng,
		cfg:      cfg,
		sched:    cfg.Scheduler,
		assigned: make([]seqq.FIFO[tcp.Chunk], len(paths)),
	}
	if cfg.Coupled {
		c.group = &liaGroup{}
	}
	for i, dp := range paths {
		idx := i
		sub := cfg.Subflow
		// Subflow-level flow control is left to the subflow's own
		// buffer; connection-level flow control happens at chunk
		// admission (subflowSource.Next), so a stalled connection
		// window never blocks retransmissions or reinjections.
		sub.RcvBuf = cfg.RcvBuf
		sub.OnDeliver = func(ch tcp.Chunk) { c.onDeliver(idx, ch) }
		sub.OnRTO = func() { c.onSubflowRTO(idx) }
		if cfg.Coupled {
			sub.CC = func() tcp.CongestionControl { return newLIA(c.group) }
		}
		conn := tcp.NewDownload(eng, dp, flowBase+idx, sub)
		conn.SetSource(&subflowSource{c: c, idx: idx})
		if cfg.Coupled {
			c.group.register(conn)
		}
		c.subflows = append(c.subflows, conn)
		c.rtoStreak = append(c.rtoStreak, 0)
	}
	return c
}

// reinjectEntry is a chunk queued for transmission on a subflow other
// than the one it was originally assigned to.
type reinjectEntry struct {
	ch    tcp.Chunk
	owner int
}

// Subflows returns the underlying TCP subflow connections.
func (c *Conn) Subflows() []*tcp.Conn { return c.subflows }

// Start begins the multipath transfer.
func (c *Conn) Start() {
	c.curWindowStart = c.eng.Now()
	for _, s := range c.subflows {
		s.Start()
	}
}

// Stop halts all subflows.
func (c *Conn) Stop() {
	for _, s := range c.subflows {
		s.Stop()
	}
	c.flushWindow(c.eng.Now())
}

// Goodput returns the connection-level in-order goodput series.
func (c *Conn) Goodput() *stats.TimeSeries { return &c.goodput }

// BytesDelivered returns connection-level in-order bytes delivered.
func (c *Conn) BytesDelivered() int64 { return c.delivered }

// MeanGoodputMbps returns the mean connection goodput over elapsed.
func (c *Conn) MeanGoodputMbps(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(c.delivered*8) / elapsed.Seconds() / 1e6
}

// String describes the connection setup.
func (c *Conn) String() string {
	return fmt.Sprintf("mptcp(%d subflows, sched=%s, rcvbuf=%d)",
		len(c.subflows), c.sched.Name(), c.cfg.RcvBuf)
}

// rwnd is the connection-level receive window: buffer minus data
// admitted but not yet delivered in order (outstanding + reassembly).
func (c *Conn) rwnd() int {
	w := c.cfg.RcvBuf - int(c.sndNxtDSN-c.rcvNxtDSN)
	if w < 0 {
		w = 0
	}
	return w
}

// connSpace reports how many more bytes the connection window admits.
func (c *Conn) connSpace() int { return c.rwnd() }

// onDeliver reassembles subflow-in-order chunks into the connection
// byte stream. A subflow delivers its chunks in the order they were
// assigned to it, so a delivered chunk is the head of the subflow's
// assigned queue.
func (c *Conn) onDeliver(idx int, ch tcp.Chunk) {
	if q := &c.assigned[idx]; q.Len() > 0 && q.Front().DSN == ch.DSN {
		q.Pop()
	}
	c.rtoStreak[idx] = 0
	switch {
	case ch.DSN == c.rcvNxtDSN:
		c.accept(ch.Len)
		for c.reasm.Len() > 0 && c.reasm.Front().Seq == c.rcvNxtDSN {
			n := c.reasm.Front().Val
			c.reasm.Pop()
			c.reasmByte -= n
			c.accept(n)
		}
		// The connection window reopened: give every subflow a chance
		// to pull newly admitted data.
		for _, s := range c.subflows {
			s.Kick()
		}
	case ch.DSN > c.rcvNxtDSN:
		if c.reasm.Insert(ch.DSN, ch.Len) {
			c.reasmByte += ch.Len
		}
	default:
		// Duplicate of already-delivered data (a reinjection or subflow
		// retransmission raced the original): ignore.
	}
}

// onSubflowRTO implements opportunistic reinjection: when a subflow
// times out, its outstanding chunks are queued for transmission on the
// other subflows, so a path outage cannot indefinitely head-of-line
// block the connection (Linux MPTCP behaves the same way).
func (c *Conn) onSubflowRTO(idx int) {
	if len(c.subflows) < 2 {
		return
	}
	// A single RTO can be an ordinary congestion event; only a repeated
	// timeout (backed-off, no deliveries in between) marks the subflow
	// as failing and triggers rescue of its outstanding data.
	c.rtoStreak[idx]++
	if c.rtoStreak[idx] < 2 {
		return
	}
	// Queue what the connection still lacks behind the DSN-sorted
	// reinjection queue; the rest was delivered meanwhile (stale:
	// delivered elsewhere). The sort is stable, so where a DSN is queued
	// twice the earlier entry comes first and is the one kept.
	for _, ch := range c.assigned[idx].Items() {
		if ch.DSN >= c.rcvNxtDSN {
			c.reinject = append(c.reinject, reinjectEntry{ch: ch, owner: idx})
		}
	}
	sortChunks(c.reinject)
	c.reinject = slices.CompactFunc(c.reinject, func(a, b reinjectEntry) bool { return a.ch.DSN == b.ch.DSN })
	for i, s := range c.subflows {
		if i != idx {
			s.Kick()
		}
	}
}

func (c *Conn) accept(n int) {
	c.rcvNxtDSN += int64(n)
	c.delivered += int64(n)
	c.recordGoodput(c.eng.Now(), int64(n))
}

func (c *Conn) recordGoodput(now time.Duration, bytes int64) {
	for now >= c.curWindowStart+c.cfg.Window {
		c.flushWindow(c.curWindowStart + c.cfg.Window)
	}
	c.curWindowBytes += bytes
}

func (c *Conn) flushWindow(boundary time.Duration) {
	if boundary <= c.curWindowStart {
		return
	}
	mbps := float64(c.curWindowBytes*8) / c.cfg.Window.Seconds() / 1e6
	c.goodput.Add(c.curWindowStart, mbps)
	c.curWindowStart = boundary
	c.curWindowBytes = 0
}

// subflowSource feeds connection data to one subflow, mediated by the
// scheduler and the connection-level window.
type subflowSource struct {
	c   *Conn
	idx int
}

// Next implements tcp.DataSource.
func (s *subflowSource) Next(maxBytes int) (tcp.Chunk, bool) {
	c := s.c
	n := min(maxBytes, tcp.MSS)
	if n <= 0 {
		return tcp.Chunk{}, false
	}
	// Reinjected chunks are already inside the connection window and
	// take priority over new data (hole filling after a path failure).
	// A chunk is never handed back to its owning subflow: that subflow
	// retransmits it natively.
	for i := 0; i < len(c.reinject); i++ {
		e := c.reinject[i]
		if e.ch.DSN < c.rcvNxtDSN {
			c.reinject = append(c.reinject[:i], c.reinject[i+1:]...)
			i--
			continue
		}
		if e.owner == s.idx {
			continue
		}
		c.reinject = append(c.reinject[:i], c.reinject[i+1:]...)
		c.assigned[s.idx].Push(e.ch)
		return e.ch, true
	}
	if !c.sched.Allow(c, s.idx) {
		return tcp.Chunk{}, false
	}
	// A redundant scheduler serves owed duplicates before new data;
	// stalled peers pick their copies up on their next ACK-driven pull.
	if red, ok := c.sched.(*Redundant); ok {
		if ch, ok := red.NextDuplicate(c, s.idx); ok {
			c.assigned[s.idx].Push(ch)
			return ch, true
		}
	}
	if c.connSpace() < n {
		return tcp.Chunk{}, false
	}
	ch := tcp.Chunk{DSN: c.sndNxtDSN, Len: n}
	c.sndNxtDSN += int64(n)
	c.assigned[s.idx].Push(ch)
	if red, ok := c.sched.(*Redundant); ok {
		red.OnOriginate(c, s.idx, ch)
	}
	return ch, true
}

// sortChunks orders reinjection entries by DSN (insertion sort: the
// queue is small and nearly sorted).
func sortChunks(entries []reinjectEntry) {
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0 && entries[j].ch.DSN < entries[j-1].ch.DSN; j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
}

// hasSpace reports whether subflow i can place at least one more
// segment in flight.
func hasSpace(s *tcp.Conn) bool {
	return s.Cwnd()-s.BytesInFlight() >= tcp.MSS
}
