package emu

import (
	"math/rand"
	"time"

	"satcell/internal/channel"
)

// Path is a bidirectional emulated network path built from a channel
// trace: the downlink and uplink are independently shaped links whose
// rate, delay and loss follow the replayed samples, exactly as MpShell
// replays the paper's driving traces (§6).
type Path struct {
	Trace *channel.Trace
	Down  *Link
	Up    *Link
}

// PathConfig tunes the trace replay.
type PathConfig struct {
	// QueueBytes is the droptail buffer of each direction (0 = default).
	QueueBytes int
	// Seed drives the stochastic loss gates. Past the trace's end,
	// conditions freeze at its final sample.
	Seed int64
}

// NewPath builds a Path inside eng replaying tr. deliverDown receives
// packets sent through the downlink (server -> client), deliverUp those
// sent through the uplink (client -> server).
func NewPath(eng *Engine, tr *channel.Trace, cfg PathConfig, deliverDown, deliverUp func(*Packet)) *Path {
	rngDown := rand.New(rand.NewSource(cfg.Seed*2 + 1))
	rngUp := rand.New(rand.NewSource(cfg.Seed*2 + 2))

	// Each link reads the trace through its own cursor: a link consults
	// it at non-decreasing virtual times, so the lookup walks forward
	// instead of searching.
	dc := newTraceCursor(tr)
	down := NewLink(eng, LinkConfig{
		Rate:  func(t time.Duration) float64 { return dc.at(t).DownMbps },
		Delay: func(t time.Duration) time.Duration { return dc.at(t).RTT / 2 },
		Loss: ProbLoss(rngDown, func(t time.Duration) float64 {
			return dc.at(t).LossDown
		}),
		QueueBytes: cfg.QueueBytes,
	}, deliverDown)

	uc := newTraceCursor(tr)
	up := NewLink(eng, LinkConfig{
		Rate:  func(t time.Duration) float64 { return uc.at(t).UpMbps },
		Delay: func(t time.Duration) time.Duration { return uc.at(t).RTT / 2 },
		Loss: ProbLoss(rngUp, func(t time.Duration) float64 {
			return uc.at(t).LossUp
		}),
		QueueBytes: cfg.QueueBytes,
	}, deliverUp)

	return &Path{Trace: tr, Down: down, Up: up}
}

// traceCursor answers Trace.At for one reader whose query times mostly
// move forward. It returns the same sample Trace.At does, by pointer,
// walking from the previous answer; a query earlier than that restarts
// the walk from the first sample.
type traceCursor struct {
	samples []channel.Sample
	i       int
}

// noSample stands in for every sample of an empty trace.
var noSample channel.Sample

func newTraceCursor(tr *channel.Trace) *traceCursor {
	return &traceCursor{samples: tr.Samples}
}

// at returns the sample in effect at t: the last sample with At <= t,
// or the first sample for t at or before the trace start.
func (c *traceCursor) at(t time.Duration) *channel.Sample {
	s := c.samples
	if len(s) == 0 {
		return &noSample
	}
	if t <= s[0].At || t < s[c.i].At {
		c.i = 0
		if t <= s[0].At {
			return &s[0]
		}
	}
	for c.i+1 < len(s) && s[c.i+1].At <= t {
		c.i++
	}
	return &s[c.i]
}
