// Package tcp implements a discrete-event TCP data-transfer model on top
// of internal/emu: a bulk sender with NewReno congestion control,
// RFC 6298 retransmission timers, duplicate-ACK fast retransmit/fast
// recovery, a receive-window-limited receiver, and retransmission
// accounting (the paper's Fig. 5 metric).
//
// The model is deliberately segment-level (no checksum/handshake
// minutiae) but faithful where it matters for the paper's findings: how
// congestion control reacts to the elevated random loss of the Starlink
// path, and how the receive buffer throttles multipath transfers.
package tcp

import (
	"math"
	"time"
)

// MSS is the data payload carried per segment.
const MSS = 1448

// CongestionControl is the pluggable window-evolution algorithm of a
// sender. All sizes are in bytes.
type CongestionControl interface {
	Name() string
	// OnAck is called for every ACK that newly acknowledges acked bytes
	// outside recovery episodes, with the latest RTT sample.
	OnAck(acked int, rtt time.Duration)
	// OnLoss is called when a loss episode begins (3rd duplicate ACK),
	// with the sender's current flight size (RFC 5681 uses FlightSize,
	// not cwnd, to derive ssthresh). It returns the new threshold.
	OnLoss(flight int) int
	// OnRTO is called on a retransmission timeout with the flight size.
	OnRTO(flight int)
	// ExitRecovery is called when the recovery episode completes.
	ExitRecovery()
	// Window returns the current congestion window in bytes.
	Window() int
	// InSlowStart reports whether the controller is in slow start.
	InSlowStart() bool
	// ExitSlowStart caps ssthresh at the current window (HyStart-style
	// delay-based slow-start exit).
	ExitSlowStart()
	// Reset restores the initial state.
	Reset()
}

// initialWindow is the standard 10-segment initial congestion window.
const initialWindow = 10 * MSS

// minWindow is the floor for the congestion window.
const minWindow = 2 * MSS

// NewReno implements RFC 6582 NewReno congestion control.
type NewReno struct {
	cwnd     int
	ssthresh int
}

// NewNewReno returns a NewReno instance at its initial state.
func NewNewReno() *NewReno {
	r := &NewReno{}
	r.Reset()
	return r
}

// Name implements CongestionControl.
func (r *NewReno) Name() string { return "newreno" }

// Reset implements CongestionControl.
func (r *NewReno) Reset() {
	r.cwnd = initialWindow
	r.ssthresh = math.MaxInt32
}

// Window implements CongestionControl.
func (r *NewReno) Window() int { return r.cwnd }

// OnAck implements CongestionControl.
func (r *NewReno) OnAck(acked int, _ time.Duration) {
	if r.cwnd < r.ssthresh {
		// Slow start: one MSS per MSS acked.
		r.cwnd += acked
		if r.cwnd > r.ssthresh {
			r.cwnd = r.ssthresh
		}
		return
	}
	// Congestion avoidance: ~one MSS per RTT.
	inc := MSS * acked / r.cwnd
	if inc < 1 {
		inc = 1
	}
	r.cwnd += inc
}

// OnLoss implements CongestionControl.
func (r *NewReno) OnLoss(flight int) int {
	r.ssthresh = max(flight/2, minWindow)
	return r.ssthresh
}

// ExitRecovery implements CongestionControl.
func (r *NewReno) ExitRecovery() { r.cwnd = r.ssthresh }

// OnRTO implements CongestionControl.
func (r *NewReno) OnRTO(flight int) {
	r.ssthresh = max(flight/2, minWindow)
	r.cwnd = MSS
}

// InSlowStart implements CongestionControl.
func (r *NewReno) InSlowStart() bool { return r.cwnd < r.ssthresh }

// ExitSlowStart implements CongestionControl.
func (r *NewReno) ExitSlowStart() { r.ssthresh = r.cwnd }

// SetWindow overrides the congestion window (used during fast-recovery
// inflation by the sender and by tests).
func (r *NewReno) SetWindow(w int) { r.cwnd = max(w, minWindow) }
