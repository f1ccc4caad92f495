// Package emu is a discrete-event network emulator in the spirit of
// Mahimahi/MpShell: packets flow through links whose capacity is driven
// by replayed traces (or constant rates), with droptail buffers,
// propagation delay and stochastic loss. The transport simulations
// (internal/tcp, internal/udp, internal/mptcp) run on top of it.
package emu

import "satcell/internal/vclock"

// Engine is a single-threaded discrete-event simulator with a virtual
// clock. The event heap itself lives in vclock.Scheduler, which the
// Engine embeds. It is not safe for concurrent use on its own; all
// simulated components run inside its event loop.
type Engine struct {
	vclock.Scheduler
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }
