package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"satcell/internal/channel"
	"satcell/internal/tcp"
)

// refFluidRun is FluidTCP.Run as it was before its kernel was rewritten,
// with a division per flow pair. Run must give exactly its results and
// make exactly its draws.
func refFluidRun(f FluidTCP, tr *channel.Trace, rng *rand.Rand) FluidResult {
	flows := f.Flows
	if flows <= 0 {
		flows = 1
	}
	queue := float64(fluidQueueBytes)
	w := make([]float64, flows)
	ssthresh := make([]float64, flows)
	wMax := make([]float64, flows)
	for i := range w {
		w[i] = 10 * tcp.MSS
		ssthresh[i] = math.Inf(1)
	}
	var res FluidResult
	var sum float64
	for i, s := range tr.Samples {
		dt := 1.0
		if i+1 < len(tr.Samples) {
			dt = (tr.Samples[i+1].At - s.At).Seconds()
		}
		if dt <= 0 {
			continue
		}
		if s.Outage || s.DownMbps <= 0.05 {
			for j := range w {
				if w[j] > 2*tcp.MSS {
					ssthresh[j] = math.Max(w[j]/2, 2*tcp.MSS)
					wMax[j] = w[j]
				}
				w[j] = 2 * tcp.MSS
				res.sentPkts += 5
				res.lostPkts += 4
			}
			res.GoodputMbps = append(res.GoodputMbps, 0)
			continue
		}
		rtt := s.RTT.Seconds()
		if rtt <= 0 {
			rtt = 0.05
		}
		capBps := s.DownMbps * 1e6 / 8
		bdp := capBps * rtt
		total := 0.0
		victim := 0
		for j, wj := range w {
			total += wj
			if wj > w[victim] {
				victim = j
			}
		}
		if total > bdp+queue {
			wMax[victim] = w[victim]
			ssthresh[victim] = math.Max(w[victim]/2, 2*tcp.MSS)
			w[victim] = ssthresh[victim]
			res.lostPkts += 2
		}
		goodput := 0.0
		for j := range w {
			share := capBps / float64(flows)
			rate := math.Min(w[j]/rtt, share+math.Max(0, capBps-refUsedCap(w, rtt, capBps, j)))
			rate = math.Min(rate, capBps)
			pkts := rate * dt / tcp.MSS
			res.sentPkts += pkts
			halvings := 0
			if s.Burst {
				halvings = 1
			} else if s.LossDown > 0 {
				remaining := dt
				wNow := w[j]
				for halvings < 6 {
					rateNow := math.Min(wNow/rtt, capBps)
					perRTT := 1 - math.Exp(-rateNow*rtt/tcp.MSS*s.LossDown)
					if perRTT <= 1e-9 {
						break
					}
					tNext := rtt / perRTT * rng.ExpFloat64()
					if tNext > remaining {
						break
					}
					remaining -= tNext
					wNow = math.Max(wNow/2, 2*tcp.MSS)
					halvings++
				}
			}
			res.lostPkts += pkts * s.LossDown
			switch {
			case halvings > 0:
				wMax[j] = w[j]
				for h := 0; h < halvings; h++ {
					ssthresh[j] = math.Max(w[j]/2, 2*tcp.MSS)
					w[j] = ssthresh[j]
				}
			case w[j] < ssthresh[j]:
				w[j] = math.Min(w[j]*math.Pow(2, dt/rtt), ssthresh[j])
				if math.IsInf(ssthresh[j], 1) {
					limit := (bdp + 0.2*queue) / float64(flows)
					if w[j] > limit {
						w[j] = limit
						ssthresh[j] = limit
					}
				}
			default:
				growth := tcp.MSS * dt / rtt
				if w[j] < wMax[j] {
					catchUp := (wMax[j] - w[j]) * (1 - math.Exp(-dt/3))
					if catchUp > growth {
						growth = catchUp
					}
				}
				w[j] += growth
			}
			w[j] = math.Min(w[j], (bdp+queue)/float64(flows)*1.5)
			goodput += rate * (1 - s.LossDown)
		}
		goodput = math.Min(goodput, capBps)
		mbps := goodput * 8 / 1e6
		res.GoodputMbps = append(res.GoodputMbps, mbps)
		sum += mbps * dt
	}
	if d := tr.Duration().Seconds(); d > 0 {
		res.MeanGoodputMbps = sum / d
	}
	if res.sentPkts > 0 {
		res.RetransRate = res.lostPkts / res.sentPkts
		if res.RetransRate > 1 {
			res.RetransRate = 1
		}
	}
	return res
}

// refUsedCap sums the offered rate of all flows except j.
func refUsedCap(w []float64, rtt, capBps float64, j int) float64 {
	used := 0.0
	for k, wk := range w {
		if k == j {
			continue
		}
		used += math.Min(wk/rtt, capBps)
	}
	return used
}

// fluidSampleBytes is how many input bytes fluidTraceFromBytes turns
// into one sample.
const fluidSampleBytes = 6

// fluidTraceFromBytes builds a trace of one sample per six bytes: a gap
// to the next sample (zero, negative, half a second, one, two or seven
// seconds), outage, burst and near-dead-link flags, a capacity of 0 to
// 500 Mbps, an RTT of 5 to 900 ms, and a downlink loss of 0 to 50% or,
// for the top byte values, one that puts a first-second flow's episode
// probability within a few parts in 10^8 of minEpisodeProb.
func fluidTraceFromBytes(data []byte) *channel.Trace {
	tr := &channel.Trace{Network: channel.StarlinkMobility}
	var at time.Duration
	for ; len(data) >= fluidSampleBytes; data = data[fluidSampleBytes:] {
		b := data[:fluidSampleBytes]
		s := channel.Sample{At: at}
		s.Outage = b[1]&1 != 0
		s.Burst = b[1]&2 != 0
		s.DownMbps = float64(uint16(b[2])<<8|uint16(b[3])) / 65535 * 500
		if b[1]&4 != 0 {
			s.DownMbps = 0.05 * float64(b[1]>>3) / 16
		}
		s.UpMbps = s.DownMbps / 10
		s.RTT = 5*time.Millisecond + time.Duration(b[4])*895*time.Millisecond/255
		if b[5] <= 200 {
			s.LossDown = float64(b[5]) / 200 * 0.5
		} else {
			// A first-second window of ten segments offers ten packets
			// per RTT, so x = 10·loss sits next to minEpisodeProb.
			s.LossDown = minEpisodeProb / 10 * (1 + float64(int(b[5])-228)*2e-9)
		}
		s.LossUp = s.LossDown / 2
		tr.Samples = append(tr.Samples, s)
		switch b[0] % 8 {
		case 0:
		case 1:
			at -= time.Second
		case 2:
			at += 500 * time.Millisecond
		case 3:
			at += 2 * time.Second
		case 4:
			at += 7 * time.Second
		default:
			at += time.Second
		}
	}
	return tr
}

// checkFluidMatches fails unless Run and refFluidRun, each given a
// fresh rng from seed, agree bit for bit on every output and leave
// their rngs at the same draw.
func checkFluidMatches(t *testing.T, f FluidTCP, tr *channel.Trace, seed int64) {
	t.Helper()
	gotRng, wantRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	got, want := f.Run(tr, gotRng), refFluidRun(f, tr, wantRng)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if len(got.GoodputMbps) != len(want.GoodputMbps) {
		t.Fatalf("flows %d, seed %d: %d goodput samples, reference %d", f.Flows, seed, len(got.GoodputMbps), len(want.GoodputMbps))
	}
	for i := range got.GoodputMbps {
		if !same(got.GoodputMbps[i], want.GoodputMbps[i]) {
			t.Fatalf("flows %d, seed %d: goodput[%d] = %v, reference %v", f.Flows, seed, i, got.GoodputMbps[i], want.GoodputMbps[i])
		}
	}
	if !same(got.MeanGoodputMbps, want.MeanGoodputMbps) || !same(got.RetransRate, want.RetransRate) ||
		!same(got.sentPkts, want.sentPkts) || !same(got.lostPkts, want.lostPkts) {
		t.Fatalf("flows %d, seed %d: mean %v retrans %v (sent %v lost %v), reference %v %v (%v %v)", f.Flows, seed,
			got.MeanGoodputMbps, got.RetransRate, got.sentPkts, got.lostPkts,
			want.MeanGoodputMbps, want.RetransRate, want.sentPkts, want.lostPkts)
	}
	if g, w := gotRng.Int63(), wantRng.Int63(); g != w {
		t.Fatalf("flows %d, seed %d: next draw %d, reference %d: the runs drew differently", f.Flows, seed, g, w)
	}
}

// TestFluidTCPMatchesReference holds Run to the reference on random
// traces, and on traces whose loss puts the first loss-episode test
// right at minEpisodeProb, where an ulp of the episode probability
// decides whether the flow draws a wait.
func TestFluidTCPMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		data := make([]byte, fluidSampleBytes*(1+rng.Intn(300)))
		rng.Read(data)
		tr := fluidTraceFromBytes(data)
		flows := 1 + rng.Intn(8)
		checkFluidMatches(t, FluidTCP{Flows: flows}, tr, rng.Int63())
	}
	// A flow's first second offers x = 10·loss packets per RTT; sweep x
	// in steps of one part in 10^9 across minEpisodeProb, through the
	// band where the computed probability rounds to the other side of
	// it.
	for _, rtt := range []time.Duration{5 * time.Millisecond, 50 * time.Millisecond, 900 * time.Millisecond} {
		for k := -3000; k <= 3000; k++ {
			loss := minEpisodeProb / 10 * (1 + float64(k)*1e-9)
			tr := &channel.Trace{Network: channel.StarlinkMobility}
			for s := 0; s < 3; s++ {
				tr.Samples = append(tr.Samples, channel.Sample{
					At: time.Duration(s) * time.Second, DownMbps: 400, RTT: rtt, LossDown: loss,
				})
			}
			for _, flows := range []int{1, 4} {
				checkFluidMatches(t, FluidTCP{Flows: flows}, tr, int64(k))
			}
		}
	}
}

// FuzzFluidTCPMatchesReference holds Run to the reference on traces
// built from arbitrary bytes (see fluidTraceFromBytes).
func FuzzFluidTCPMatchesReference(f *testing.F) {
	f.Add([]byte{5, 0, 0x80, 0, 10, 2, 5, 2, 0x40, 0, 40, 200}, int64(1), uint8(1))
	f.Add([]byte{5, 0, 0xff, 0xff, 255, 229, 5, 0, 0xff, 0xff, 255, 230}, int64(2), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, seed int64, flows uint8) {
		if len(data) > 600*fluidSampleBytes {
			data = data[:600*fluidSampleBytes]
		}
		checkFluidMatches(t, FluidTCP{Flows: 1 + int(flows%8)}, fluidTraceFromBytes(data), seed)
	})
}

// leoBenchTrace is a lossy 300 s LEO window: capacity swinging between
// 40 and 260 Mbps, RTTs of 30 to 90 ms, 0.2–2% loss, a handover burst
// every 15 s and a two-second outage every minute.
func leoBenchTrace() *channel.Trace {
	rng := rand.New(rand.NewSource(42))
	tr := &channel.Trace{Network: channel.StarlinkMobility}
	for i := 0; i <= 300; i++ {
		s := channel.Sample{
			At:       time.Duration(i) * time.Second,
			DownMbps: 40 + 220*rng.Float64(),
			RTT:      time.Duration(30+rng.Intn(60)) * time.Millisecond,
			LossDown: 0.002 + 0.018*rng.Float64(),
			Burst:    i%15 == 0,
			Outage:   i%60 >= 58,
		}
		s.UpMbps, s.LossUp = s.DownMbps/10, s.LossDown/2
		tr.Samples = append(tr.Samples, s)
	}
	return tr
}

// BenchmarkFluidTCP times one fluid run of 1, 4 and 8 flows over a
// lossy 300 s LEO window, the work the streaming analysis does per
// TCP test for Figure 7.
func BenchmarkFluidTCP(b *testing.B) {
	tr := leoBenchTrace()
	for _, flows := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				FluidTCP{Flows: flows}.Run(tr, rand.New(rand.NewSource(int64(i))))
			}
		})
	}
}
