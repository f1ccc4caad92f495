// Package udp models the paper's UDP-Ping measurement on the emulator:
// a client probes up a duplex path at a fixed interval, an echo server
// returns each probe down it, and the client records per-probe RTTs
// and counts unanswered probes.
package udp

import (
	"time"

	"satcell/internal/emu"
)

// PingPayload matches the paper's UDP-Ping tool: 1024-byte probes.
const PingPayload = 1024

// headerSize is the UDP/IP overhead per datagram.
const headerSize = 28

// pingReq/pingResp are the wire payloads of a ping exchange.
type pingReq struct {
	seq    int64
	sentAt time.Duration
}
type pingResp struct {
	seq    int64
	sentAt time.Duration
}

// PingStats summarises a ping run.
type PingStats struct {
	Sent     int64
	Received int64
	RTTs     []time.Duration
}

// Pinger emulates the paper's UDP-Ping app: the client sends a 1024-byte
// UDP probe up the path every interval; the echo server returns it down
// the path; the client records per-probe RTTs.
type Pinger struct {
	eng      *emu.Engine
	dp       *emu.DuplexPath
	flow     int
	interval time.Duration
	running  bool
	stats    PingStats
}

// NewPinger wires a pinger on dp under flow, probing every interval
// (default 200 ms).
func NewPinger(eng *emu.Engine, dp *emu.DuplexPath, flow int, interval time.Duration) *Pinger {
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	p := &Pinger{eng: eng, dp: dp, flow: flow, interval: interval}
	// Server side: echo requests arriving on the uplink.
	dp.UpMux.Register(flow, p.serve)
	// Client side: receive echoes from the downlink.
	dp.DownMux.Register(flow, p.receive)
	return p
}

// Start begins probing.
func (p *Pinger) Start() {
	p.running = true
	p.sendNext()
}

// Stop halts probing.
func (p *Pinger) Stop() { p.running = false }

// Stats returns the collected statistics.
func (p *Pinger) Stats() PingStats { return p.stats }

func (p *Pinger) sendNext() {
	if !p.running {
		return
	}
	seq := p.stats.Sent
	p.stats.Sent++
	p.dp.Up.Send(&emu.Packet{
		Flow:    p.flow,
		Seq:     seq,
		Size:    PingPayload + headerSize,
		Payload: pingReq{seq: seq, sentAt: p.eng.Now()},
	})
	p.eng.Schedule(p.interval, p.sendNext)
}

func (p *Pinger) serve(pk *emu.Packet) {
	req, ok := pk.Payload.(pingReq)
	if !ok {
		return
	}
	p.dp.Down.Send(&emu.Packet{
		Flow:    p.flow,
		Seq:     req.seq,
		Size:    PingPayload + headerSize,
		Payload: pingResp{seq: req.seq, sentAt: req.sentAt},
	})
}

func (p *Pinger) receive(pk *emu.Packet) {
	resp, ok := pk.Payload.(pingResp)
	if !ok {
		return
	}
	p.stats.Received++
	p.stats.RTTs = append(p.stats.RTTs, p.eng.Now()-resp.sentAt)
}
