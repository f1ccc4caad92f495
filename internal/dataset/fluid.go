package dataset

import (
	"math"
	"math/rand"

	"satcell/internal/channel"
	"satcell/internal/tcp"
)

// FluidTCP is a per-second fluid approximation of one or more parallel
// TCP flows over a channel trace: AIMD window dynamics driven by the
// trace's loss probability and capacity (queue overflow), with slow
// start and outage handling. It exists because simulating every one of
// the campaign's thousands of TCP tests at packet level would be
// needlessly slow; internal/tcp is the ground truth it is validated
// against (see TestFluidMatchesPacketLevel).
type FluidTCP struct {
	// Flows is the number of parallel connections (the paper's "P").
	Flows int
}

// fluidQueueBytes is the bottleneck buffer the model assumes.
const fluidQueueBytes = 1 << 20

// FluidResult summarises a fluid TCP run.
type FluidResult struct {
	MeanGoodputMbps float64
	GoodputMbps     []float64 // per trace sample
	RetransRate     float64
	sentPkts        float64
	lostPkts        float64
}

// Run evaluates the model over tr using rng for loss-event draws.
func (f FluidTCP) Run(tr *channel.Trace, rng *rand.Rand) FluidResult {
	flows := f.Flows
	if flows <= 0 {
		flows = 1
	}
	queue := float64(fluidQueueBytes)

	// Per-flow windows in bytes; slow-start thresholds; CUBIC-style
	// pre-loss window marks for concave catch-up growth; offered rates
	// min(w/rtt, capBps), kept current as the windows change within a
	// second.
	buf := make([]float64, 4*flows)
	w, ssthresh, wMax, offered := buf[:flows], buf[flows:2*flows], buf[2*flows:3*flows], buf[3*flows:]
	for i := range w {
		w[i] = 10 * tcp.MSS
		ssthresh[i] = math.Inf(1)
	}

	var res FluidResult
	if len(tr.Samples) > 0 {
		res.GoodputMbps = make([]float64, 0, len(tr.Samples))
	}
	var sum float64
	// catchUpFrac is 1-exp(-dt/3) for the gap catchUpDt; the gaps are
	// almost always one second, so it is computed about once per run.
	catchUpDt, catchUpFrac := math.NaN(), 0.0
	for i, s := range tr.Samples {
		dt := 1.0
		if i+1 < len(tr.Samples) {
			dt = (tr.Samples[i+1].At - s.At).Seconds()
		}
		if dt <= 0 {
			continue
		}
		if s.Outage || s.DownMbps <= 0.05 {
			// Connection stalls; windows collapse to the minimum by
			// RTOs. Only the first outage second halves ssthresh (no
			// new flights time out while nothing is being sent); the
			// RTO probes show up in a tcpdump as retransmissions.
			for j := range w {
				if w[j] > 2*tcp.MSS {
					ssthresh[j] = max(w[j]/2, 2*tcp.MSS)
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
		capBps := s.DownMbps * 1e6 / 8 // bytes/s
		bdp := capBps * rtt

		// Queue overflow desynchronizes parallel flows: droptail hits
		// the flow bursting hardest, so only the largest window halves
		// (this is why parallelism keeps the pipe full, §4.2).
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
			ssthresh[victim] = max(w[victim]/2, 2*tcp.MSS)
			w[victim] = ssthresh[victim]
			res.lostPkts += 2
		}
		for j, wj := range w {
			offered[j] = min(wj/rtt, capBps)
		}

		share := capBps / float64(flows)
		wCap := (bdp + queue) / float64(flows) * 1.5
		caGrowth := tcp.MSS * dt / rtt
		goodput := 0.0
		// What flows 0..j-1 offer, summed in flow order: the other
		// flows' offer for flow j is this plus what flows j+1.. offer,
		// in the order a sum over all flows but j adds them.
		prefix := 0.0
		for j := range w {
			used := prefix
			for _, o := range offered[j+1:] {
				used += o
			}
			// min(min(w/rtt, x), capBps), with w/rtt already capped.
			rate := min(offered[j], share+max(0, capBps-used))
			pkts := rate * dt / tcp.MSS
			res.sentPkts += pkts

			// Random-loss episodes: all losses within one RTT collapse
			// into a single halving (SACK recovery). Episodes are drawn
			// sequentially because each halving reduces the rate and so
			// the chance of further losses within the same second. A
			// Burst second (handover gap) is exactly one episode.
			halvings := 0
			if s.Burst {
				halvings = 1
			} else if s.LossDown > 0 {
				halvings = lossEpisodes(w[j], offered[j], rtt, capBps, s.LossDown, dt, rng)
			}
			res.lostPkts += pkts * s.LossDown

			switch {
			case halvings > 0:
				wMax[j] = w[j]
				for h := 0; h < halvings; h++ {
					ssthresh[j] = max(w[j]/2, 2*tcp.MSS)
					w[j] = ssthresh[j]
				}
			case w[j] < ssthresh[j]:
				// Slow start: double per RTT, capped by ssthresh.
				w[j] = min(w[j]*math.Pow(2, dt/rtt), ssthresh[j])
				if math.IsInf(ssthresh[j], 1) {
					// Delay-based exit once the BDP share is reached.
					limit := (bdp + 0.2*queue) / float64(flows)
					if w[j] > limit {
						w[j] = limit
						ssthresh[j] = limit
					}
				}
			default:
				// Congestion avoidance. Modern stacks (CUBIC) climb
				// back toward the pre-loss window concavely within a
				// few seconds, then probe Reno-style beyond it.
				growth := caGrowth
				if w[j] < wMax[j] {
					if dt != catchUpDt {
						catchUpDt, catchUpFrac = dt, 1-math.Exp(-dt/3)
					}
					catchUp := (wMax[j] - w[j]) * catchUpFrac
					if catchUp > growth {
						growth = catchUp
					}
				}
				w[j] += growth
			}
			// The window cannot outgrow the pipe plus buffer share.
			w[j] = min(w[j], wCap)
			offered[j] = min(w[j]/rtt, capBps)
			prefix += offered[j]
			goodput += rate * (1 - s.LossDown)
		}
		goodput = min(goodput, capBps)
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

// Loss episodes start when an RTT holds a loss, which happens with
// probability 1-exp(-x) for x = packets per RTT × loss rate. Below
// minEpisodeProb an RTT counts as loss-free.
const minEpisodeProb = 1e-9

// lossEpisodes draws the number of loss episodes (at most six) a flow
// with window w, offering rate = min(w/rtt, capBps), meets in dt
// seconds: each episode halves the window and waits an exponential
// time of mean rtt/p, with p the episode probability per RTT at the
// window's rate.
func lossEpisodes(w, rate, rtt, capBps, loss, dt float64, rng *rand.Rand) int {
	remaining := dt
	halvings := 0
	for halvings < 6 {
		perRTT := 1 - math.Exp(-(rate * rtt / tcp.MSS * loss))
		if perRTT <= minEpisodeProb {
			break
		}
		tNext := rtt / perRTT * rng.ExpFloat64()
		if tNext > remaining {
			break
		}
		remaining -= tNext
		w = max(w/2, 2*tcp.MSS)
		rate = min(w/rtt, capBps)
		halvings++
	}
	return halvings
}
