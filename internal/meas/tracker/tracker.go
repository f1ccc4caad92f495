// Package tracker reimplements the role of 5G Tracker (§3.2): a
// periodic sampler that records network type, vehicle speed, GPS
// location and signal strength alongside the throughput tests. In the
// field it reads the modem; here the Provider interface abstracts the
// information source, and the simulation adapters feed it from the
// channel models.
package tracker

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Record is one tracker sample, serialised as JSONL.
type Record struct {
	AtMs     int64   `json:"at_ms"`
	Network  string  `json:"network"`
	NetType  string  `json:"net_type"` // network class, e.g. "satellite", "cellular"
	Lat      float64 `json:"lat"`
	Lon      float64 `json:"lon"`
	SpeedKmh float64 `json:"speed_kmh"`
	SignalDB float64 `json:"signal_db"`
	Serving  string  `json:"serving"`
	Outage   bool    `json:"outage"`
}

// Provider supplies the current state for a device being tracked.
type Provider interface {
	// Info returns the record for the given elapsed time offset.
	Info(at time.Duration) (Record, error)
}

// Tracker samples a Provider at a fixed period and writes JSONL records.
type Tracker struct {
	provider Provider
	period   time.Duration

	mu      sync.Mutex
	records []Record
}

// New builds a tracker sampling provider every period (default 1s).
func New(provider Provider, period time.Duration) *Tracker {
	if period <= 0 {
		period = time.Second
	}
	return &Tracker{provider: provider, period: period}
}

// SampleRange collects records covering [0, dur) at the tracker period.
// It is driven by a virtual clock, so it works identically for live
// and simulated providers.
func (t *Tracker) SampleRange(dur time.Duration) error {
	for at := time.Duration(0); at < dur; at += t.period {
		rec, err := t.provider.Info(at)
		if err != nil {
			return fmt.Errorf("tracker: sample at %v: %w", at, err)
		}
		rec.AtMs = at.Milliseconds()
		t.mu.Lock()
		t.records = append(t.records, rec)
		t.mu.Unlock()
	}
	return nil
}

// Records returns a copy of the collected records.
func (t *Tracker) Records() []Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Record, len(t.records))
	copy(out, t.records)
	return out
}

// WriteJSONL writes the collected records, one JSON object per line.
func (t *Tracker) WriteJSONL(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, r := range t.records {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}
