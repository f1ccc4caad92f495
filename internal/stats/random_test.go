package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 10) != 5 || Clamp(-1, 0, 10) != 0 || Clamp(11, 0, 10) != 10 {
		t.Fatal("Clamp misbehaves")
	}
}

func TestGilbertElliottStationaryLoss(t *testing.T) {
	g := &GilbertElliott{
		PGoodToBad: 0.01,
		PBadToGood: 0.09,
		LossGood:   0.001,
		LossBad:    0.2,
	}
	want := stationaryLoss(g)
	r := rand.New(rand.NewSource(3))
	n := 400000
	losses := 0
	for i := 0; i < n; i++ {
		if g.Step(r) {
			losses++
		}
	}
	got := float64(losses) / float64(n)
	if math.Abs(got-want) > 0.15*want+0.001 {
		t.Fatalf("empirical loss %v, stationary %v", got, want)
	}
}

func TestGilbertElliottForceBad(t *testing.T) {
	g := &GilbertElliott{PBadToGood: 0, LossBad: 1}
	g.bad = true // a handover disruption burst
	if !g.Bad() {
		t.Fatal("chain not in the bad state")
	}
	r := rand.New(rand.NewSource(0))
	for i := 0; i < 10; i++ {
		if !g.Step(r) {
			t.Fatal("bad state with LossBad=1 must lose every packet")
		}
	}
}

func TestGilbertElliottZeroTransitions(t *testing.T) {
	g := &GilbertElliott{LossGood: 0.5}
	if got := stationaryLoss(g); got != 0.5 {
		t.Fatalf("stationary loss = %v, want 0.5 (good-state loss)", got)
	}
}

func TestOrnsteinUhlenbeckMeanReversion(t *testing.T) {
	o := &OrnsteinUhlenbeck{Mean: 100, Theta: 0.2, Sigma: 5}
	r := rand.New(rand.NewSource(9))
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = o.Step(r)
	}
	if math.Abs(Mean(xs)-100) > 2 {
		t.Fatalf("OU mean = %v, want ~100", Mean(xs))
	}
	// Stationary std of OU in discrete form ~ sigma/sqrt(2*theta - theta^2).
	wantStd := 5 / math.Sqrt(2*0.2-0.04)
	if math.Abs(StdDev(xs)-wantStd) > 0.2*wantStd {
		t.Fatalf("OU std = %v, want ~%v", StdDev(xs), wantStd)
	}
}

func TestOrnsteinUhlenbeckReset(t *testing.T) {
	o := &OrnsteinUhlenbeck{Mean: 100, Theta: 0.3, Sigma: 0}
	r := rand.New(rand.NewSource(1))
	o.Step(r)
	o.Reset(200)
	if o.Mean != 200 {
		t.Fatalf("Mean after reset = %v", o.Mean)
	}
	// With sigma 0 and x == mean before reset, value scales proportionally.
	if math.Abs(o.x-200) > 1e-9 {
		t.Fatalf("value after reset = %v, want 200", o.x)
	}
	// Reset on a fresh process initialises directly.
	var o2 OrnsteinUhlenbeck
	o2.Reset(50)
	if o2.x != 50 {
		t.Fatalf("fresh Reset value = %v", o2.x)
	}
}

// stationaryLoss returns the long-run loss probability of the chain:
// the analytic reference for its empirical loss rate.
func stationaryLoss(g *GilbertElliott) float64 {
	denom := g.PGoodToBad + g.PBadToGood
	if denom == 0 {
		return g.LossGood
	}
	pBad := g.PGoodToBad / denom
	return (1-pBad)*g.LossGood + pBad*g.LossBad
}
