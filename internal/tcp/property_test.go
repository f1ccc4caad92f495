package tcp

import (
	"math/rand"
	"testing"
	"time"

	"satcell/internal/channel"
	"satcell/internal/emu"
	"satcell/internal/stats"
	"satcell/internal/testutil"
)

// randomTrace draws a random-but-plausible channel trace.
func randomTrace(r *rand.Rand, secs int) *channel.Trace {
	tr := &channel.Trace{Network: channel.StarlinkMobility}
	base := 10 + r.Float64()*290
	rtt := time.Duration(20+r.Intn(130)) * time.Millisecond
	loss := r.Float64() * 0.01
	for i := 0; i <= secs; i++ {
		cap := base * (0.5 + r.Float64())
		s := channel.Sample{
			At:       time.Duration(i) * time.Second,
			DownMbps: cap,
			UpMbps:   cap / 10,
			RTT:      rtt,
			LossDown: loss,
			LossUp:   loss / 2,
		}
		if r.Float64() < 0.03 {
			s.Outage = true
			s.DownMbps, s.UpMbps = 0, 0
			s.LossDown, s.LossUp = 1, 1
		}
		tr.Samples = append(tr.Samples, s)
	}
	return tr
}

// TestTransportInvariantsProperty drives the full TCP stack over many
// random traces and checks invariants that must hold regardless of
// conditions: goodput bounded by capacity, deliveries bounded by sends,
// retransmission rate within [0, 1], monotone goodput accounting.
func TestTransportInvariantsProperty(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		tr := randomTrace(r, 25)
		eng := emu.NewEngine()
		dp := emu.NewDuplexPath(eng, tr, emu.PathConfig{Seed: seed, QueueBytes: 1 << 20})
		c := NewDownload(eng, dp, 1, Config{})
		c.Start()
		series := testutil.GoodputSeries(eng, 20, c.BytesDelivered)
		c.Stop()

		st := c.Stats()
		if st.BytesDelivered > st.SegmentsSent*MSS {
			t.Fatalf("seed %d: delivered %d > sent %d bytes", seed, st.BytesDelivered, st.SegmentsSent*int64(MSS))
		}
		if st.BytesAcked > st.SegmentsSent*MSS {
			t.Fatalf("seed %d: acked more than sent", seed)
		}
		if st.Retransmits < 0 || st.Retransmits > st.SegmentsSent {
			t.Fatalf("seed %d: %d retransmits of %d segments", seed, st.Retransmits, st.SegmentsSent)
		}
		// Goodput cannot exceed mean capacity by more than the queue's
		// worth of buffered catch-up.
		meanCap := stats.Mean(tr.DownSeries())
		if g := testutil.MeanMbps(c.BytesDelivered(), 20*time.Second); g > meanCap*1.25+1 {
			t.Fatalf("seed %d: goodput %v above capacity %v", seed, g, meanCap)
		}
		// Goodput series must be non-negative everywhere.
		for _, v := range series {
			if v < 0 {
				t.Fatalf("seed %d: negative goodput", seed)
			}
		}
	}
}

// TestSackScoreboardConsistencyProperty checks that the internal SACK
// counters never go negative across random runs (they are maintained
// incrementally and would drift on any bookkeeping bug).
func TestSackScoreboardConsistencyProperty(t *testing.T) {
	for seed := int64(20); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		tr := randomTrace(r, 15)
		eng := emu.NewEngine()
		dp := emu.NewDuplexPath(eng, tr, emu.PathConfig{Seed: seed, QueueBytes: 512 << 10})
		c := NewDownload(eng, dp, 1, Config{})
		c.Start()
		for step := 0; step < 60; step++ {
			eng.RunUntil(time.Duration(step) * 250 * time.Millisecond)
			if c.sackedBytes < 0 || c.lostBytes < 0 || c.retransBytes < 0 {
				t.Fatalf("seed %d t=%v: negative counters sacked=%d lost=%d rex=%d",
					seed, eng.Now(), c.sackedBytes, c.lostBytes, c.retransBytes)
			}
			if c.pipe() < 0 {
				t.Fatalf("seed %d: negative pipe", seed)
			}
			if c.sndUna > c.sndNxt {
				t.Fatalf("seed %d: sndUna beyond sndNxt", seed)
			}
			if c.rcvNxt > c.sndNxt {
				t.Fatalf("seed %d: receiver ahead of sender", seed)
			}
		}
		c.Stop()
	}
}
