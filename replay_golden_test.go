package satcell_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"satcell"
	"satcell/internal/channel"
	"satcell/internal/core"
	"satcell/internal/dataset"
	"satcell/internal/emu"
	"satcell/internal/faults"
	"satcell/internal/mptcp"
	"satcell/internal/netem"
	"satcell/internal/stats"
	"satcell/internal/tcp"
	"satcell/internal/vsession"
)

// The replay goldens pin the packet-level replay stack byte for byte.
// Determinism tests elsewhere only prove that a run repeats itself; a
// change that reorders the event loop (two events at the same virtual
// nanosecond swapping places, a timer firing one tie-break later) would
// still repeat itself while changing every figure. The fig10 and
// vsession digests were recorded before the event loop was last rebuilt,
// the fig11 and ablation digests before their replays moved onto
// vsession, the lossy digest before the TCP packet path recycled its
// packets, and the redundant lossy digest before the receive queues
// stopped being maps; none may ever be updated to make a kernel change
// pass.
const (
	goldenFig10CSV    = "6f1875b3660e2ed174d652ef51f9fc57d5e94ba06ec4f0c51d22f1b318e833ae"
	goldenVSessDig    = "4d294e85d7b649c8ba21044942bfeb4db5d0f1df98b667faaf170597c9490ee0"
	goldenFig11CSV    = "3c8053c48b7a2b07279b9360f642f92ff24db084544bd1a79f1ee498e9e5a6ea"
	goldenAblCSV      = "19114fa8d9b37a9b7fa50aa71fd30dc0bc04da8961b3b012b596ab637f5f509c"
	goldenLossyDig    = "0a27a4525c445e5d75427d88c649e62cce21794b138d13862f1df60bd53c4810"
	goldenLossyRedDig = "9221f13f8fa24f02fb3b6bb0a31833945211abc91e725564a4f442830c627d6c"
	goldenFig10Seed   = 42
)

// goldenMultipathConfig is the short replay every multipath golden
// runs: one aligned 8 s window of the seed-42, scale-0.05 campaign.
var goldenMultipathConfig = core.MultipathConfig{WindowSeconds: 8, Windows: 1}

// checkCSVDigest fails t unless the sha256 of f's CSV is want.
func checkCSVDigest(t *testing.T, f *core.Figure, want string) {
	t.Helper()
	csv := f.CSV()
	sum := sha256.Sum256([]byte(csv))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("%s CSV sha256 = %s, want %s\n%s", f.ID, got, want, csv)
	}
}

// TestReplayGoldenFigure10 replays fig10's seven setups over one short
// aligned window of a small seed-42 campaign and pins the CSV.
func TestReplayGoldenFigure10(t *testing.T) {
	ds := dataset.Generate(dataset.Config{Seed: goldenFig10Seed, Scale: 0.05})
	f := core.NewAnalyzer(ds).Figure10(goldenMultipathConfig)
	if len(f.Series) != 7 {
		t.Fatalf("fig10 has %d series, want 7 (notes: %v)", len(f.Series), f.Notes)
	}
	checkCSVDigest(t, f, goldenFig10CSV)
}

// TestReplayGoldenFigure11 pins fig11's five per-second goodput series
// over the same window.
func TestReplayGoldenFigure11(t *testing.T) {
	ds := dataset.Generate(dataset.Config{Seed: goldenFig10Seed, Scale: 0.05})
	f := core.NewAnalyzer(ds).Figure11(goldenMultipathConfig)
	if len(f.Series) != 5 {
		t.Fatalf("fig11 has %d series, want 5 (notes: %v)", len(f.Series), f.Notes)
	}
	checkCSVDigest(t, f, goldenFig11CSV)
}

// TestReplayGoldenAblation pins the MPTCP scheduler and coupled-CC
// ablation's seven variants over the same window, rendered by the
// Analyzer and by the facade's "ablation-mptcp".
func TestReplayGoldenAblation(t *testing.T) {
	ds := dataset.Generate(dataset.Config{Seed: goldenFig10Seed, Scale: 0.05})
	f := core.NewAnalyzer(ds).MultipathAblation(goldenMultipathConfig)
	if len(f.Series) != 7 {
		t.Fatalf("ablation has %d series, want 7 (notes: %v)", len(f.Series), f.Notes)
	}
	checkCSVDigest(t, f, goldenAblCSV)

	f = satcell.NewWorld(goldenFig10Seed).Figure(ds, "ablation-mptcp", satcell.FigureOptions{
		MultipathWindowSeconds: goldenMultipathConfig.WindowSeconds, MultipathWindows: goldenMultipathConfig.Windows,
	})
	if f == nil {
		t.Fatal(`World.Figure(ds, "ablation-mptcp", ...) = nil`)
	}
	checkCSVDigest(t, f, goldenAblCSV)
}

// TestReplayGoldenAllFigures renders fig10 and fig11 through the
// facade's Figures, which folds both from one pool of fig10's replays:
// each CSV must equal its golden at goldenMultipathConfig, and the
// standalone Figure10/Figure11 at one and two windows.
func TestReplayGoldenAllFigures(t *testing.T) {
	world := satcell.NewWorld(goldenFig10Seed)
	ds := world.GenerateDataset(satcell.DatasetOptions{Scale: 0.05})
	a := core.NewAnalyzer(ds)
	for _, windows := range []int{1, 2} {
		mp := goldenMultipathConfig
		mp.Windows = windows
		figs, _, err := world.Figures(ds, satcell.FigureOptions{MultipathWindowSeconds: mp.WindowSeconds, MultipathWindows: windows})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			all, alone *core.Figure
			golden     string
		}{
			{figs["fig10"], a.Figure10(mp), goldenFig10CSV},
			{figs["fig11"], a.Figure11(mp), goldenFig11CSV},
		} {
			if windows == goldenMultipathConfig.Windows {
				checkCSVDigest(t, c.all, c.golden)
			}
			if got, want := c.all.CSV(), c.alone.CSV(); got != want {
				t.Errorf("%s, %d windows: Figures CSV differs from the standalone figure\n%s\nvs\n%s", c.alone.ID, windows, got, want)
			}
		}
	}
}

// TestReplayPoolWorkerInvariant renders the multipath figures at
// Workers 1, 2 and 8: each CSV must be byte-identical across worker
// counts and, at goldenMultipathConfig, equal its golden. fig10 and the
// ablation also replay two windows, so the pool has more jobs than
// workers.
func TestReplayPoolWorkerInvariant(t *testing.T) {
	ds := dataset.Generate(dataset.Config{Seed: goldenFig10Seed, Scale: 0.05})
	a := core.NewAnalyzer(ds)
	for _, fig := range []struct {
		render  func(core.MultipathConfig) *core.Figure
		golden  string
		windows []int
	}{
		{a.Figure10, goldenFig10CSV, []int{1, 2}},
		{a.Figure11, goldenFig11CSV, []int{1}},
		{a.MultipathAblation, goldenAblCSV, []int{1, 2}},
	} {
		for _, windows := range fig.windows {
			var first string
			for _, workers := range []int{1, 2, 8} {
				mp := goldenMultipathConfig
				mp.Windows, mp.Workers = windows, workers
				f := fig.render(mp)
				if windows == goldenMultipathConfig.Windows {
					checkCSVDigest(t, f, fig.golden)
				} else if f.ID == "fig10" && !slices.Contains(f.Notes, "2 windows of 8s") {
					t.Fatalf("fig10 notes %q: want two replayed windows", f.Notes)
				}
				if workers == 1 {
					first = f.CSV()
				} else if got := f.CSV(); got != first {
					t.Fatalf("%s, %d windows: CSV at %d workers differs from 1 worker\n%s\nvs\n%s", f.ID, windows, workers, got, first)
				}
			}
		}
	}
}

// TestReplayGoldenVSession pins the digest of a faulted two-path MPTCP
// session: a Starlink-like path with seeded blackouts beside a
// cellular one.
func TestReplayGoldenVSession(t *testing.T) {
	sched, err := faults.ParseSpec("auto=3/20s", 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := vsession.Run(vsession.Config{
		Paths: []vsession.PathSpec{
			{
				Name:   "leo",
				Down:   netem.ConstantShape(150, 25*time.Millisecond, 0),
				Up:     netem.ConstantShape(15, 25*time.Millisecond, 0),
				Faults: &sched,
			},
			{
				Name: "cell",
				Down: netem.ConstantShape(60, 20*time.Millisecond, 0.001),
				Up:   netem.ConstantShape(10, 20*time.Millisecond, 0),
			},
		},
		Duration: 20 * time.Second,
		Seed:     42,
		RcvBuf:   20 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest != goldenVSessDig {
		t.Fatalf("vsession digest = %s, want %s\n%s", res.Digest, goldenVSessDig, res.CSV())
	}
}

// lossyTrace is a one-sample-per-second window at fixed rates and RTT
// with random loss in both directions; the listed seconds are outages
// that also lose whatever finishes serializing inside them.
func lossyTrace(secs int, down, up float64, rtt time.Duration, lossDown, lossUp float64, outages ...int) *channel.Trace {
	tr := &channel.Trace{Network: "lossy"}
	for i := 0; i <= secs; i++ {
		s := channel.Sample{At: time.Duration(i) * time.Second, DownMbps: down, UpMbps: up, RTT: rtt, LossDown: lossDown, LossUp: lossUp}
		if slices.Contains(outages, i) {
			s.DownMbps, s.UpMbps, s.LossDown, s.LossUp, s.Outage = 0, 0, 1, 1, true
		}
		tr.Samples = append(tr.Samples, s)
	}
	return tr
}

// writeLossyRun appends a connection's goodput series and counters and
// its links' counters to b.
func writeLossyRun(b *strings.Builder, goodput *stats.TimeSeries, conns []*tcp.Conn, dps []*emu.DuplexPath) {
	for _, p := range goodput.Points {
		fmt.Fprintf(b, "%d,%.6f\n", p.At, p.V)
	}
	for _, c := range conns {
		fmt.Fprintf(b, "%+v srtt=%d rto=%d cwnd=%d\n", c.Stats(), c.SRTT(), c.RTO(), c.Cwnd())
	}
	for _, dp := range dps {
		fmt.Fprintf(b, "down %+v\nup %+v\n", dp.Down.Stats(), dp.Up.Stats())
	}
}

// TestReplayGoldenLossy pins the kernel where packets die: a
// shallow-queue single-path download with random loss on both
// directions (so data and ACKs are both dropped by the queue and by
// the wire), then a two-path MPTCP download whose primary path blacks
// out long enough for repeated RTOs and reinjection onto the other
// path. Between them every end of a packet's life is exercised:
// delivery, a droptail reject, a wire loss and the RTO path. The digest
// covers each run's goodput series and every connection and link
// counter.
func TestReplayGoldenLossy(t *testing.T) {
	const secs = 15
	var b strings.Builder

	// The ACK link's queue holds 25 ACKs and the link stalls for half a
	// second mid-run, so ACKs overflow it as data does the data link's.
	eng := emu.NewEngine()
	down, up := emu.NewFlowMux(), emu.NewFlowMux()
	lossy := func(seed int64, rate emu.RateFunc, prob float64, queue int, deliver func(*emu.Packet)) *emu.Link {
		r := rand.New(rand.NewSource(seed))
		return emu.NewLink(eng, emu.LinkConfig{
			Rate:       rate,
			Delay:      emu.ConstantDelay(30 * time.Millisecond),
			Loss:       emu.ProbLoss(r, func(time.Duration) float64 { return prob }),
			QueueBytes: queue,
		}, deliver)
	}
	dataLink := lossy(1, emu.ConstantRate(40), 0.001, 24<<10, down.Deliver)
	ackLink := lossy(2, func(t time.Duration) float64 {
		if t >= 5*time.Second && t < 5500*time.Millisecond {
			return 0
		}
		return 1
	}, 0.002, 1<<10, up.Deliver)
	c := tcp.NewConn(eng, 1, dataLink, ackLink, tcp.Config{})
	down.Register(1, c.DeliverData)
	up.Register(1, c.DeliverAck)
	c.Start()
	eng.RunUntil(secs * time.Second)
	c.Stop()
	writeLossyRun(&b, c.Goodput(), []*tcp.Conn{c}, nil)
	ds, as := dataLink.Stats(), ackLink.Stats()
	fmt.Fprintf(&b, "data %+v\nack %+v\n", ds, as)
	if ds.QueueDrops == 0 || as.QueueDrops == 0 || ds.RandomLosses == 0 || as.RandomLosses == 0 {
		t.Fatalf("single path: want queue drops and wire losses on both links, got data %+v ack %+v", ds, as)
	}

	mc := runLossyMultipath(&b, secs, mptcp.Config{RcvBuf: 8 << 20})
	if rtos := mc.Subflows()[0].Stats().RTOs; rtos < 2 {
		t.Fatalf("multipath: primary subflow timed out %d times, want >= 2 (reinjection)", rtos)
	}
	checkLossyDigest(t, &b, goldenLossyDig)
}

// runLossyMultipath runs TestReplayGoldenLossy's two-path download: the
// primary path blacks out for seconds 4-7 and 11-12, the secondary for
// second 9, and both lose packets at random. It appends the run to b.
func runLossyMultipath(b *strings.Builder, secs int, cfg mptcp.Config) *mptcp.Conn {
	eng := emu.NewEngine()
	paths := []*emu.DuplexPath{
		emu.NewDuplexPath(eng, lossyTrace(secs, 80, 8, 50*time.Millisecond, 0.002, 0.002, 4, 5, 6, 7, 11, 12),
			emu.PathConfig{Seed: 8, QueueBytes: 256 << 10}),
		emu.NewDuplexPath(eng, lossyTrace(secs, 30, 5, 70*time.Millisecond, 0.001, 0, 9),
			emu.PathConfig{Seed: 9, QueueBytes: 256 << 10}),
	}
	mc := mptcp.NewConn(eng, paths, 10, cfg)
	mc.Start()
	eng.RunUntil(time.Duration(secs) * time.Second)
	mc.Stop()
	writeLossyRun(b, mc.Goodput(), mc.Subflows(), paths)
	return mc
}

// checkLossyDigest fails t unless the sha256 of b's contents is want.
func checkLossyDigest(t *testing.T, b *strings.Builder, want string) {
	t.Helper()
	sum := sha256.Sum256([]byte(b.String()))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("lossy replay sha256 = %s, want %s\n%s", got, want, b.String())
	}
}

// TestReplayGoldenLossyRedundant pins connection-level reassembly where
// it sees the same bytes more than once: TestReplayGoldenLossy's
// two-path download under the redundant scheduler, which sends every
// chunk on both subflows, and under BLEST with fig10's untuned 2 MiB
// buffer. Each run must rescue the primary subflow's data after
// repeated timeouts and deliver duplicates (the subflows hand the
// connection more bytes than it delivers in order).
func TestReplayGoldenLossyRedundant(t *testing.T) {
	const secs = 15
	var b strings.Builder
	for _, cfg := range []mptcp.Config{
		{RcvBuf: 8 << 20, Scheduler: mptcp.NewRedundant()},
		{RcvBuf: 2 << 20, Scheduler: mptcp.NewBLEST()},
	} {
		mc := runLossyMultipath(&b, secs, cfg)
		name := cfg.Scheduler.Name()
		if rtos := mc.Subflows()[0].Stats().RTOs; rtos < 2 {
			t.Fatalf("%s: primary subflow timed out %d times, want >= 2 (reinjection)", name, rtos)
		}
		var sub int64
		for _, s := range mc.Subflows() {
			sub += s.BytesDelivered()
		}
		if sub <= mc.BytesDelivered() {
			t.Fatalf("%s: subflows delivered %d bytes, connection %d: want duplicate arrivals", name, sub, mc.BytesDelivered())
		}
		fmt.Fprintf(&b, "%s connection %d subflows %d\n", name, mc.BytesDelivered(), sub)
	}
	checkLossyDigest(t, &b, goldenLossyRedDig)
}
