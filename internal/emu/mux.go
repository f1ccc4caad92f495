package emu

import "satcell/internal/channel"

// FlowMux routes delivered packets to per-flow handlers, so multiple
// transport connections can share one emulated link (parallel iPerf
// streams, MPTCP subflows, data + ACK traffic). A link carries a
// handful of flows, so Deliver scans them in registration order.
type FlowMux struct {
	flows []muxFlow
}

// muxFlow is one registered flow and its handler.
type muxFlow struct {
	flow int
	h    func(*Packet)
}

// NewFlowMux returns an empty mux.
func NewFlowMux() *FlowMux { return &FlowMux{} }

// Register installs the handler for a flow, replacing any previous one.
func (m *FlowMux) Register(flow int, h func(*Packet)) {
	if i := m.find(flow); i >= 0 {
		m.flows[i].h = h
		return
	}
	m.flows = append(m.flows, muxFlow{flow, h})
}

// find returns the index of flow's entry, or -1.
func (m *FlowMux) find(flow int) int {
	for i := range m.flows {
		if m.flows[i].flow == flow {
			return i
		}
	}
	return -1
}

// Deliver dispatches p to its flow handler; packets for unknown flows
// are dropped silently (like traffic to a closed port).
func (m *FlowMux) Deliver(p *Packet) {
	if i := m.find(p.Flow); i >= 0 {
		m.flows[i].h(p)
	}
}

// DuplexPath bundles a trace-driven Path with flow muxes on both
// directions; transports register their receive hooks per flow.
type DuplexPath struct {
	*Path
	DownMux *FlowMux // receives what the downlink delivers (client side)
	UpMux   *FlowMux // receives what the uplink delivers (server side)
}

// NewDuplexPath builds a muxed bidirectional path replaying tr.
func NewDuplexPath(eng *Engine, tr *channel.Trace, cfg PathConfig) *DuplexPath {
	down := NewFlowMux()
	up := NewFlowMux()
	p := NewPath(eng, tr, cfg, down.Deliver, up.Deliver)
	return &DuplexPath{Path: p, DownMux: down, UpMux: up}
}
