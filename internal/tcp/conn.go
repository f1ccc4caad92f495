package tcp

import (
	"slices"
	"sort"
	"time"

	"satcell/internal/emu"
	"satcell/internal/seqq"
	"satcell/internal/vclock"
)

// Chunk is a unit of application data handed to a subflow by its data
// source, identified by a data sequence number (DSN). For a plain TCP
// bulk transfer the DSN equals the stream offset; for MPTCP the
// connection-level scheduler assigns DSNs across subflows.
type Chunk struct {
	DSN int64
	Len int
}

// DataSource supplies data to send. Next is called whenever the sender
// has window space for up to maxBytes; returning ok=false means no data
// is currently available (the sender idles until Kick is called).
type DataSource interface {
	Next(maxBytes int) (Chunk, bool)
}

// BulkSource is an infinite backlogged stream (iPerf-style bulk
// transfer): DSNs are consecutive stream offsets.
type BulkSource struct{ next int64 }

// Next implements DataSource.
func (b *BulkSource) Next(maxBytes int) (Chunk, bool) {
	if maxBytes <= 0 {
		return Chunk{}, false
	}
	n := min(maxBytes, MSS)
	c := Chunk{DSN: b.next, Len: n}
	b.next += int64(n)
	return c, true
}

// segment is the wire representation of a data packet.
type segment struct {
	seq    int64 // subflow sequence number (bytes)
	length int
	dsn    int64 // data (connection-level) sequence number
	sentAt time.Duration
}

// sackRange is one SACK block [Start, End).
type sackRange struct{ Start, End int64 }

// maxSackBlocks is how many SACK ranges an ACK carries.
const maxSackBlocks = 4

// ack is the wire representation of an acknowledgement. Its SACK
// blocks are a copy held inline, so a recycled ACK never aliases the
// receiver's range list.
type ack struct {
	cum    int64                    // cumulative subflow ACK
	echoTS time.Duration            // timestamp echoed from the segment triggering this ACK
	rwnd   int                      // receive window in bytes
	sacks  [maxSackBlocks]sackRange // selective acknowledgement blocks
	nsacks int                      // how many of sacks are set
}

// dataPacket and ackPacket hold a packet together with the payload it
// carries; the packet's Payload points back at its wrapper, so the
// receive hook gets the wrapper to recycle.
//
// A connection owns the packets it sends and keeps a free list of each
// kind. A packet goes back on its list only where its life provably
// ends: when the receive hook has read it (onData, onAck), or when the
// link's droptail rejects it. A packet lost on the wire or delivered to
// an unregistered flow is left to the garbage collector.
type dataPacket struct {
	pkt emu.Packet
	seg segment
}

type ackPacket struct {
	pkt emu.Packet
	ack ack
}

// ackSize is the wire size of a pure ACK.
const ackSize = 40

// headerSize is the per-segment wire overhead.
const headerSize = 52

// minRTO floors the retransmission timeout at Linux's 200 ms.
const minRTO = 200 * time.Millisecond

// Config tunes a connection.
type Config struct {
	// CC constructs the congestion controller; default NewReno.
	CC func() CongestionControl
	// RcvBuf is the receiver buffer (advertised window limit);
	// default 6 MB (Linux tcp_rmem default maximum).
	RcvBuf int
	// OnDeliver, when set, observes subflow-in-order data as the
	// receiver accepts it (MPTCP reassembly taps in here).
	OnDeliver func(Chunk)
	// OnRTO, when set, is notified of sender timeouts (MPTCP uses this
	// for reinjection decisions).
	OnRTO func()
}

func (c *Config) defaults() {
	if c.CC == nil {
		c.CC = func() CongestionControl { return NewNewReno() }
	}
	if c.RcvBuf <= 0 {
		c.RcvBuf = 6 << 20
	}
}

// Stats aggregates a connection's counters.
type Stats struct {
	SegmentsSent   int64
	Retransmits    int64
	RTOs           int64
	FastRecoveries int64
	BytesAcked     int64
	BytesDelivered int64 // in-order goodput at the receiver
}

// sseg is a sent-but-unacknowledged segment on the SACK scoreboard.
type sseg struct {
	segment
	sacked     bool
	lost       bool
	retransOut bool // a retransmission of this segment is in flight
}

// Conn is one simulated TCP connection performing a bulk transfer from
// a sender to a receiver across an emulated path. The same object holds
// both endpoints: the data link carries segments one way, the ACK link
// carries acknowledgements back. Loss recovery uses a SACK scoreboard
// in the spirit of RFC 6675 with NewReno semantics as fallback.
type Conn struct {
	eng  *emu.Engine
	cfg  Config
	flow int
	cc   CongestionControl

	dataLink *emu.Link // carries data segments
	ackLink  *emu.Link // carries ACKs

	src DataSource

	// Sender state.
	sndUna       int64
	sndNxt       int64
	dupAcks      int
	inRecovery   bool
	recover      int64
	srtt         time.Duration
	rttvar       time.Duration
	rto          time.Duration
	peerRwnd     int
	unacked      seqq.FIFO[sseg] // scoreboard, ordered by seq
	sackedBytes  int
	lostBytes    int
	retransBytes int // outstanding retransmissions (in pipe)
	highSacked   int64
	minRTT       time.Duration
	running      bool

	// Retransmission timer. Arming fixes the deadline and reserves its
	// tie-break sequence number; the engine holds one carrier event at or
	// before that position. A later deadline leaves the carrier where it
	// is: when it fires short of the deadline it re-schedules itself
	// into the deadline's exact position, so a timer re-armed on every
	// ACK costs one heap operation per timeout interval, not one per
	// ACK. An earlier deadline moves the carrier up in place.
	rtoArmed     bool
	rtoDue       vclock.Pos
	rtoCarrier   vclock.Slot
	rtoCarrierAt vclock.Pos // the carrier's position while it is pending
	rtoCarrierFn func()

	// Recycled packets (see dataPacket).
	freeData []*dataPacket
	freeAcks []*ackPacket

	// Receiver state.
	rcvNxt    int64
	oooBytes  int
	oooSegs   seqq.Sorted[segment] // out-of-order segments, ascending by seq
	oooRanges []sackRange          // sorted disjoint received ranges above rcvNxt

	stats Stats
}

// NewConn builds a connection sending data on dataLink with ACKs
// returning on ackLink. Receive hooks must be attached to the links'
// delivery paths (see NewDownload for the common wiring).
func NewConn(eng *emu.Engine, flow int, dataLink, ackLink *emu.Link, cfg Config) *Conn {
	cfg.defaults()
	c := &Conn{
		eng:      eng,
		cfg:      cfg,
		flow:     flow,
		cc:       cfg.CC(),
		dataLink: dataLink,
		ackLink:  ackLink,
		src:      &BulkSource{},
		rto:      time.Second,
		peerRwnd: cfg.RcvBuf,
	}
	c.rtoCarrierFn = c.onRTOCarrier
	return c
}

// NewDownload wires a bulk download over a duplex path: data segments
// flow on the downlink, ACKs return on the uplink. The connection's
// receive hooks are registered on the path's muxes under flow.
func NewDownload(eng *emu.Engine, dp *emu.DuplexPath, flow int, cfg Config) *Conn {
	c := NewConn(eng, flow, dp.Down, dp.Up, cfg)
	dp.DownMux.Register(flow, c.DeliverData)
	dp.UpMux.Register(flow, c.DeliverAck)
	return c
}

// SetSource replaces the data source (must be called before Start).
func (c *Conn) SetSource(src DataSource) { c.src = src }

// Stats returns the connection counters.
func (c *Conn) Stats() Stats { return c.stats }

// BytesDelivered returns the in-order bytes delivered to the receiver.
func (c *Conn) BytesDelivered() int64 { return c.stats.BytesDelivered }

// SRTT returns the smoothed RTT estimate (0 before the first sample).
func (c *Conn) SRTT() time.Duration { return c.srtt }

// RTO returns the current retransmission timeout.
func (c *Conn) RTO() time.Duration { return c.rto }

// Cwnd returns the current congestion window in bytes.
func (c *Conn) Cwnd() int { return c.cc.Window() }

// BytesInFlight returns the sender's outstanding (un-SACKed) bytes.
func (c *Conn) BytesInFlight() int { return c.pipe() }

// Start begins the transfer at the current virtual time.
func (c *Conn) Start() {
	c.running = true
	c.trySend()
}

// Stop halts new data transmission (outstanding data still drains).
func (c *Conn) Stop() { c.running = false }

// Kick re-attempts transmission; MPTCP calls this when the scheduler
// assigns new data to an idle subflow.
func (c *Conn) Kick() {
	if c.running {
		c.trySend()
	}
}

// DeliverData is the receive hook for the data link.
func (c *Conn) DeliverData(p *emu.Packet) { c.onData(p) }

// DeliverAck is the receive hook for the ACK link.
func (c *Conn) DeliverAck(p *emu.Packet) { c.onAck(p) }

// --- Sender ---

// pipe estimates the bytes currently in the network (RFC 6675 Pipe):
// outstanding minus SACKed minus lost, plus in-flight retransmissions.
func (c *Conn) pipe() int {
	p := int(c.sndNxt-c.sndUna) - c.sackedBytes - c.lostBytes + c.retransBytes
	if p < 0 {
		p = 0
	}
	return p
}

func (c *Conn) window() int {
	w := c.cc.Window()
	if c.peerRwnd < w {
		w = c.peerRwnd
	}
	return w
}

// trySend transmits retransmissions first (hole filling), then new data,
// while the pipe has room.
func (c *Conn) trySend() {
	if !c.running {
		return
	}
	for {
		space := c.window() - c.pipe()
		if space < MSS && !(space > 0 && c.pipe() == 0) {
			return
		}
		// Priority 1: retransmit detected losses.
		if idx := c.nextLost(); idx >= 0 {
			s := &c.unacked.Items()[idx]
			s.lost = false
			c.lostBytes -= s.length
			s.retransOut = true
			c.retransBytes += s.length
			seg := s.segment
			seg.sentAt = c.eng.Now()
			s.segment = seg
			c.transmit(seg, true)
			continue
		}
		// Priority 2: new data.
		chunk, ok := c.src.Next(min(space, MSS))
		if !ok {
			return
		}
		seg := segment{
			seq:    c.sndNxt,
			length: chunk.Len,
			dsn:    chunk.DSN,
			sentAt: c.eng.Now(),
		}
		c.sndNxt += int64(chunk.Len)
		c.unacked.Push(sseg{segment: seg})
		c.transmit(seg, false)
	}
}

// nextLost returns the index of the lowest lost, not-yet-retransmitted
// segment, or -1.
func (c *Conn) nextLost() int {
	if c.lostBytes == 0 {
		return -1
	}
	u := c.unacked.Items()
	for i := range u {
		if u[i].lost {
			return i
		}
	}
	return -1
}

func (c *Conn) transmit(seg segment, retrans bool) {
	c.stats.SegmentsSent++
	if retrans {
		c.stats.Retransmits++
	}
	var dp *dataPacket
	if n := len(c.freeData); n > 0 {
		dp, c.freeData = c.freeData[n-1], c.freeData[:n-1]
	} else {
		dp = &dataPacket{}
	}
	dp.seg = seg
	dp.pkt = emu.Packet{
		Flow:    c.flow,
		Seq:     seg.seq,
		Size:    seg.length + headerSize,
		Payload: dp,
	}
	// Droptail loss is just silence to the sender.
	if !c.dataLink.Send(&dp.pkt) {
		c.freeData = append(c.freeData, dp)
	}
	c.armRTO()
}

func (c *Conn) armRTO() {
	if c.rtoArmed {
		return
	}
	c.rtoArmed = true
	c.rtoDue = vclock.Pos{At: c.eng.Now() + c.rto, Seq: c.eng.Reserve()}
	switch {
	case !c.rtoCarrier.Pending():
		c.eng.ScheduleSlot(&c.rtoCarrier, c.rtoDue.At, c.rtoDue.Seq, c.rtoCarrierFn)
	case c.rtoDue.Before(c.rtoCarrierAt):
		c.eng.MoveSlot(&c.rtoCarrier, c.rtoDue.At, c.rtoDue.Seq)
	default:
		return // the carrier fires first and hands the deadline on
	}
	c.rtoCarrierAt = c.rtoDue
}

// onRTOCarrier runs when the carrier fires: at the armed deadline it
// times out; short of it, it re-schedules itself there.
func (c *Conn) onRTOCarrier() {
	switch {
	case !c.rtoArmed:
	case c.rtoDue == c.rtoCarrierAt:
		c.fireRTO()
	default:
		c.rtoCarrierAt = c.rtoDue
		c.eng.ScheduleSlot(&c.rtoCarrier, c.rtoDue.At, c.rtoDue.Seq, c.rtoCarrierFn)
	}
}

func (c *Conn) resetRTO() {
	c.rtoArmed = false
	if c.sndUna < c.sndNxt {
		c.armRTO()
	}
}

func (c *Conn) fireRTO() {
	c.rtoArmed = false
	if c.sndUna >= c.sndNxt {
		return // everything acked meanwhile
	}
	c.stats.RTOs++
	c.cc.OnRTO(c.pipe())
	c.inRecovery = false
	c.dupAcks = 0
	// Presume every un-SACKed outstanding segment lost; the send loop
	// re-sends them as the window re-opens (go-back with SACK skips).
	c.lostBytes = 0
	c.retransBytes = 0
	u := c.unacked.Items()
	for i := range u {
		s := &u[i]
		s.retransOut = false
		s.lost = !s.sacked
		if s.lost {
			c.lostBytes += s.length
		}
	}
	c.rto = min(c.rto*2, 60*time.Second)
	c.armRTO()
	c.trySend()
	if c.cfg.OnRTO != nil {
		c.cfg.OnRTO()
	}
}

// findSeq returns the scoreboard index of the segment starting at or
// after seq.
func (c *Conn) findSeq(seq int64) int {
	u := c.unacked.Items()
	return sort.Search(len(u), func(i int) bool { return u[i].seq >= seq })
}

// applySacks marks scoreboard segments covered by the ACK's SACK blocks.
func (c *Conn) applySacks(blocks []sackRange) {
	u := c.unacked.Items()
	for _, b := range blocks {
		if b.End > c.highSacked {
			c.highSacked = b.End
		}
		for i := c.findSeq(b.Start); i < len(u); i++ {
			s := &u[i]
			if s.seq+int64(s.length) > b.End {
				break
			}
			if !s.sacked {
				s.sacked = true
				c.sackedBytes += s.length
				if s.lost {
					s.lost = false
					c.lostBytes -= s.length
				}
				if s.retransOut {
					s.retransOut = false
					c.retransBytes -= s.length
				}
			}
		}
	}
}

// detectLosses marks un-SACKed segments more than 3 segments below the
// highest SACKed byte as lost (RFC 6675's simplified IsLost rule).
// It reports whether any new loss was found.
func (c *Conn) detectLosses() bool {
	if c.highSacked == 0 {
		return false
	}
	found := false
	limit := c.highSacked - 3*MSS
	u := c.unacked.Items()
	for i := range u {
		s := &u[i]
		if s.seq >= limit {
			break
		}
		if !s.sacked && !s.lost && !s.retransOut {
			s.lost = true
			c.lostBytes += s.length
			found = true
		}
	}
	return found
}

func (c *Conn) onAck(p *emu.Packet) {
	ap, ok := p.Payload.(*ackPacket)
	if !ok {
		return
	}
	a := &ap.ack
	c.peerRwnd = a.rwnd
	c.applySacks(a.sacks[:a.nsacks])

	newlyAcked := 0
	if a.cum > c.sndUna {
		newlyAcked = int(a.cum - c.sndUna)
		c.sndUna = a.cum
		c.stats.BytesAcked += int64(newlyAcked)
		c.dupAcks = 0

		// Prune the scoreboard head.
		for c.unacked.Len() > 0 && c.unacked.Front().seq+int64(c.unacked.Front().length) <= c.sndUna {
			s := c.unacked.Front()
			if s.sacked {
				c.sackedBytes -= s.length
			}
			if s.lost {
				c.lostBytes -= s.length
			}
			if s.retransOut {
				c.retransBytes -= s.length
			}
			c.unacked.Pop()
		}

		if a.echoTS > 0 {
			c.updateRTT(c.eng.Now() - a.echoTS)
		}
		switch {
		case c.inRecovery && a.cum >= c.recover:
			c.inRecovery = false
			c.cc.ExitRecovery()
		case c.inRecovery:
			// Partial ACK: the new head-of-line segment is presumed
			// lost (NewReno), so the send loop retransmits it next.
			if c.unacked.Len() > 0 {
				s := c.unacked.Front()
				if s.seq == c.sndUna && !s.sacked && !s.lost && !s.retransOut {
					s.lost = true
					c.lostBytes += s.length
				}
			}
		}
		if !c.inRecovery {
			c.cc.OnAck(newlyAcked, c.srtt)
		}
		c.resetRTO()
	} else if c.sndUna < c.sndNxt {
		c.dupAcks++
	}

	// Loss detection and recovery entry.
	newLoss := c.detectLosses()
	if !c.inRecovery && c.sndUna < c.sndNxt {
		if newLoss || c.dupAcks >= 3 {
			if c.dupAcks >= 3 && c.lostBytes == 0 && c.unacked.Len() > 0 {
				// No SACK evidence (e.g. all above lost): classic
				// fast retransmit of the head segment.
				s := c.unacked.Front()
				if !s.sacked && !s.lost && !s.retransOut {
					s.lost = true
					c.lostBytes += s.length
				}
			}
			if c.lostBytes > 0 {
				c.stats.FastRecoveries++
				c.inRecovery = true
				c.recover = c.sndNxt
				ssthresh := c.cc.OnLoss(c.pipe())
				if sw, ok := c.cc.(interface{ SetWindow(int) }); ok {
					sw.SetWindow(ssthresh)
				}
			}
		}
	}
	c.trySend()
	c.freeAcks = append(c.freeAcks, ap)
}

func (c *Conn) updateRTT(sample time.Duration) {
	if sample <= 0 {
		return
	}
	if c.minRTT == 0 || sample < c.minRTT {
		c.minRTT = sample
	}
	// HyStart-style delay-based slow-start exit: once queueing delay
	// builds past an eighth of the base RTT (at least 4 ms), stop the
	// exponential phase before the buffer overflows.
	if c.cc.InSlowStart() {
		thresh := c.minRTT / 8
		if thresh < 4*time.Millisecond {
			thresh = 4 * time.Millisecond
		}
		if sample > c.minRTT+thresh {
			c.cc.ExitSlowStart()
		}
	}
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		diff := c.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		c.rttvar = (3*c.rttvar + diff) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < minRTO {
		c.rto = minRTO
	}
}

// --- Receiver ---

func (c *Conn) rwnd() int {
	// The sink application reads immediately, so only out-of-order
	// bytes occupy the buffer.
	w := c.cfg.RcvBuf - c.oooBytes
	if w < 0 {
		w = 0
	}
	return w
}

func (c *Conn) onData(p *emu.Packet) {
	dp, ok := p.Payload.(*dataPacket)
	if !ok {
		return
	}
	seg := dp.seg
	switch {
	case seg.seq == c.rcvNxt:
		c.accept(seg)
		// Drain contiguous out-of-order segments.
		for c.oooSegs.Len() > 0 && c.oooSegs.Front().Seq == c.rcvNxt {
			next := c.oooSegs.Front().Val
			c.oooSegs.Pop()
			c.oooBytes -= next.length
			c.accept(next)
		}
		c.popRanges()
	case seg.seq > c.rcvNxt:
		if c.oooBytes+seg.length <= c.cfg.RcvBuf && c.oooSegs.Insert(seg.seq, seg) {
			c.oooBytes += seg.length
			c.insertRange(seg.seq, seg.seq+int64(seg.length))
		}
	default:
		// Below rcvNxt: spurious retransmission, ACK again.
	}
	c.sendAck(seg.sentAt)
	c.freeData = append(c.freeData, dp)
}

// insertRange merges [s, e) into the sorted disjoint range list.
func (c *Conn) insertRange(s, e int64) {
	rs := c.oooRanges
	i := sort.Search(len(rs), func(i int) bool { return rs[i].End >= s })
	j := i
	for j < len(rs) && rs[j].Start <= e {
		if rs[j].Start < s {
			s = rs[j].Start
		}
		if rs[j].End > e {
			e = rs[j].End
		}
		j++
	}
	c.oooRanges = slices.Replace(rs, i, j, sackRange{Start: s, End: e})
}

// popRanges drops ranges now covered by rcvNxt.
func (c *Conn) popRanges() {
	i := 0
	for i < len(c.oooRanges) && c.oooRanges[i].End <= c.rcvNxt {
		i++
	}
	c.oooRanges = slices.Delete(c.oooRanges, 0, i)
	if len(c.oooRanges) > 0 && c.oooRanges[0].Start < c.rcvNxt {
		c.oooRanges[0].Start = c.rcvNxt
	}
}

func (c *Conn) accept(seg segment) {
	c.rcvNxt = seg.seq + int64(seg.length)
	c.stats.BytesDelivered += int64(seg.length)
	if c.cfg.OnDeliver != nil {
		c.cfg.OnDeliver(Chunk{DSN: seg.dsn, Len: seg.length})
	}
}

func (c *Conn) sendAck(echo time.Duration) {
	var ap *ackPacket
	if n := len(c.freeAcks); n > 0 {
		ap, c.freeAcks = c.freeAcks[n-1], c.freeAcks[:n-1]
	} else {
		ap = &ackPacket{}
	}
	ap.ack = ack{cum: c.rcvNxt, echoTS: echo, rwnd: c.rwnd()}
	ap.ack.nsacks = copy(ap.ack.sacks[:], c.oooRanges)
	ap.pkt = emu.Packet{Flow: c.flow, Seq: ap.ack.cum, Size: ackSize, Payload: ap}
	if !c.ackLink.Send(&ap.pkt) {
		c.freeAcks = append(c.freeAcks, ap)
	}
}
