package iperf

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"satcell/internal/obs"
)

// ClientConfig describes one test run.
type ClientConfig struct {
	Addr     string        // server address (host:port)
	Proto    Proto         // TCP or UDP
	Dir      Direction     // Download or Upload
	Duration time.Duration // test length; default 10 s
	Parallel int           // parallel TCP streams; default 1
	RateMbps float64       // UDP target rate; default 100
	Interval time.Duration // progress-report interval; default 1 s

	// DialRetries is how many additional dial attempts each stream
	// makes after a failed connect, with exponential backoff and
	// seeded jitter — the reconnect loop a field client needs when the
	// dish is re-acquiring. Default 0: fail fast.
	DialRetries int
	// RetryBackoff is the backoff before the first retry; it doubles
	// per attempt and is jittered to [0.5, 1.5)x. Default 200 ms.
	RetryBackoff time.Duration
	// Seed derives the retry jitter (deterministic per stream).
	Seed int64

	// Metrics, when non-nil, receives live progress: iperf.bytes (bytes
	// moved so far), iperf.dial_retries, iperf.write_errors, and the
	// iperf.interval_mbps histogram of per-second throughput. Handles
	// are get-or-create, so repeated tests on one registry accumulate.
	Metrics *obs.Registry
	// Events, when non-nil, receives session-start/session-end events
	// for each test run, keyed by elapsed time since Run began.
	Events *obs.Tracer
}

func (c *ClientConfig) defaults() {
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Parallel <= 0 {
		c.Parallel = 1
	}
	if c.RateMbps <= 0 {
		c.RateMbps = 100
	}
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 200 * time.Millisecond
	}
	if c.Proto == "" {
		c.Proto = TCP
	}
	if c.Dir == "" {
		c.Dir = Download
	}
}

// Run executes one test against a Server. A test that loses streams
// mid-run returns a partial Result with Outcome Truncated; an error is
// returned only when the test could not run at all (bad config, or
// every dial/stream failed outright).
func Run(ctx context.Context, cfg ClientConfig) (*Result, error) {
	cfg.defaults()
	start := time.Now()
	detail := string(cfg.Proto) + "/" + string(cfg.Dir)
	cfg.Events.Span(0, obs.EvSessionStart, "iperf", detail)
	defer func() { cfg.Events.Span(time.Since(start), obs.EvSessionEnd, "iperf", detail) }()
	switch cfg.Proto {
	case TCP:
		return runTCP(ctx, cfg)
	case UDP:
		return runUDP(ctx, cfg)
	default:
		return nil, fmt.Errorf("iperf: unknown proto %q", cfg.Proto)
	}
}

// dialRetry dials with cfg's retry budget: exponential backoff from
// RetryBackoff, jittered by a RNG derived from (Seed, id) so reruns of
// a scripted fault scenario reconnect on the same cadence.
func dialRetry(ctx context.Context, cfg ClientConfig, network string, id int) (net.Conn, error) {
	d := net.Dialer{}
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(id+1)*0x9E3779B9))
	backoff := cfg.RetryBackoff
	var lastErr error
	retries := cfg.Metrics.Counter("iperf.dial_retries")
	for attempt := 0; attempt <= cfg.DialRetries; attempt++ {
		if attempt > 0 {
			retries.Inc()
			sleep := time.Duration(float64(backoff) * (0.5 + rng.Float64()))
			backoff *= 2
			t := time.NewTimer(sleep)
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			case <-t.C:
			}
		}
		conn, err := d.DialContext(ctx, network, cfg.Addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("iperf: dial (%d attempts): %w", cfg.DialRetries+1, lastErr)
}

// intervalCounter tracks progress reports across streams. When built
// with a registry it also publishes live progress: iperf.bytes counts
// every byte as it moves (so a scrape mid-test sees the transfer
// advancing), and reports() folds each finished interval's throughput
// into the iperf.interval_mbps histogram.
type intervalCounter struct {
	mu       sync.Mutex
	start    time.Time
	interval time.Duration
	buckets  []int64
	progress *obs.Counter
	rate     *obs.Histogram
}

func newIntervalCounter(interval time.Duration, reg *obs.Registry) *intervalCounter {
	return &intervalCounter{
		start:    time.Now(),
		interval: interval,
		progress: reg.Counter("iperf.bytes"),
		rate:     reg.Histogram("iperf.interval_mbps", obs.MbpsBuckets),
	}
}

func (ic *intervalCounter) add(n int64) {
	ic.progress.Add(n)
	ic.mu.Lock()
	idx := int(time.Since(ic.start) / ic.interval)
	for len(ic.buckets) <= idx {
		ic.buckets = append(ic.buckets, 0)
	}
	ic.buckets[idx] += n
	ic.mu.Unlock()
}

// reports builds the per-interval summary. It is called once, at the
// end of a run; that is also when the interval throughputs land in the
// histogram (a mid-run interval isn't complete, so it can't be observed
// yet without skewing the distribution low).
func (ic *intervalCounter) reports() []IntervalReport {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	out := make([]IntervalReport, len(ic.buckets))
	for i, b := range ic.buckets {
		out[i] = IntervalReport{
			Start: time.Duration(i) * ic.interval,
			Bytes: b,
			Mbps:  float64(b*8) / ic.interval.Seconds() / 1e6,
		}
		ic.rate.Observe(out[i].Mbps)
	}
	return out
}

// runTCP fans the parallel streams out and aggregates every stream
// that produced data. One dead stream no longer discards the test: the
// survivors are summed and the result is marked Truncated. Only when
// every stream fails does the test error.
func runTCP(ctx context.Context, cfg ClientConfig) (*Result, error) {
	res := &Result{Proto: TCP, Dir: cfg.Dir, Parallel: cfg.Parallel}
	ic := newIntervalCounter(cfg.Interval, cfg.Metrics)
	type streamOut struct {
		sr  StreamResult
		err error
	}
	outs := make([]streamOut, cfg.Parallel)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Parallel; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			sr, err := runTCPStream(ctx, cfg, id, ic)
			outs[id] = streamOut{sr: sr, err: err}
		}(i)
	}
	wg.Wait()

	var firstErr error
	truncated := false
	for _, o := range outs {
		if o.err != nil {
			if firstErr == nil {
				firstErr = o.err
			}
			res.FailedStreams++
			truncated = true
			continue
		}
		if o.sr.Bytes == 0 && o.sr.Truncated {
			// Connected but never moved data: a failed stream.
			res.FailedStreams++
			truncated = true
			continue
		}
		if o.sr.Truncated {
			truncated = true
		}
		res.Streams = append(res.Streams, o.sr)
		res.TotalMbps += o.sr.Mbps
	}
	if len(res.Streams) == 0 {
		if firstErr != nil {
			return nil, firstErr
		}
		return nil, fmt.Errorf("iperf: all %d streams produced no data", cfg.Parallel)
	}
	res.Outcome = Complete
	if truncated {
		res.Outcome = Truncated
	}
	res.Intervals = ic.reports()
	return res, nil
}

func runTCPStream(ctx context.Context, cfg ClientConfig, id int, ic *intervalCounter) (StreamResult, error) {
	conn, err := dialRetry(ctx, cfg, "tcp", id)
	if err != nil {
		return StreamResult{}, err
	}
	defer conn.Close()
	hello, _ := json.Marshal(control{Dir: cfg.Dir, Duration: cfg.Duration, ID: id})
	if _, err := conn.Write(append(hello, '\n')); err != nil {
		return StreamResult{}, err
	}

	start := time.Now()
	var bytes int64
	var elapsed time.Duration
	switch cfg.Dir {
	case Download:
		// The transfer ends at the last byte received, not at the
		// configured duration: a shaped path keeps delivering what the
		// server wrote into socket buffers after the server stops.
		buf := make([]byte, 128<<10)
		deadline := start.Add(cfg.Duration + 3*time.Second)
		for {
			if ctx.Err() != nil {
				break
			}
			conn.SetReadDeadline(minTime(deadline, time.Now().Add(2*time.Second)))
			n, err := conn.Read(buf)
			bytes += int64(n)
			ic.add(int64(n))
			if n > 0 {
				elapsed = time.Since(start)
			}
			if err != nil {
				break
			}
		}
	case Upload:
		buf := make([]byte, 128<<10)
		deadline := start.Add(cfg.Duration)
		for time.Now().Before(deadline) && ctx.Err() == nil {
			conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
			n, err := conn.Write(buf)
			bytes += int64(n)
			ic.add(int64(n))
			if err != nil {
				break
			}
		}
		// The transfer window ends here: the summary exchange below can
		// block for seconds and must not dilute the rate denominator.
		elapsed = min(time.Since(start), cfg.Duration)
		// Half-close and read the server's count (authoritative).
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		conn.SetReadDeadline(time.Now().Add(3 * time.Second))
		line, err := bufio.NewReader(conn).ReadBytes('\n')
		if err == nil {
			var sum uploadSummary
			if json.Unmarshal(line, &sum) == nil && sum.Bytes > 0 {
				bytes = sum.Bytes
			}
		}
	}
	if elapsed <= 0 {
		elapsed = time.Millisecond
	}
	// A stream that lost its connection well before the configured
	// duration carries a truncated (but still valid) sample.
	early := elapsed < cfg.Duration*9/10
	return StreamResult{
		ID:       id,
		Bytes:    bytes,
		Duration: elapsed,
		// Actual elapsed time, not the configured duration: a stream
		// that died at t=2s of 10s moved its bytes in 2s, and dividing
		// by 10 would under-report the link fivefold.
		Mbps:      float64(bytes*8) / elapsed.Seconds() / 1e6,
		Truncated: early,
	}, nil
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

func runUDP(ctx context.Context, cfg ClientConfig) (*Result, error) {
	raddr, err := net.ResolveUDPAddr("udp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	testID := rand.Uint32()
	ic := newIntervalCounter(cfg.Interval, cfg.Metrics)

	res := &Result{Proto: UDP, Dir: cfg.Dir, Parallel: 1}
	switch cfg.Dir {
	case Upload:
		err = runUDPUpload(ctx, conn, cfg, testID, ic, res)
	case Download:
		err = runUDPDownload(ctx, conn, cfg, testID, ic, res)
	}
	if err != nil {
		return nil, err
	}
	res.Intervals = ic.reports()
	return res, nil
}

func runUDPUpload(ctx context.Context, conn *net.UDPConn, cfg ClientConfig, testID uint32, ic *intervalCounter, res *Result) error {
	buf := make([]byte, udpPayload)
	interval := time.Duration(float64(udpPayload+28) * 8 / (cfg.RateMbps * 1e6) * float64(time.Second))
	if interval <= 0 {
		interval = time.Microsecond
	}
	deadline := time.Now().Add(cfg.Duration)
	next := time.Now()
	var seq uint64
	writeErrs := 0
	werrCounter := cfg.Metrics.Counter("iperf.write_errors")
	for time.Now().Before(deadline) && ctx.Err() == nil {
		marshalHeader(udpHeader{
			Magic: udpMagic, Type: udpTypeData, TestID: testID,
			Seq: seq, SentNano: uint64(time.Now().UnixNano()),
		}, buf)
		seq++
		if _, err := conn.Write(buf); err != nil {
			// A write error means the far end is unreachable right now
			// (ICMP unreachable after a relay/server kill). Keep
			// pacing: the link may come back inside the test window.
			writeErrs++
			werrCounter.Inc()
			ic.add(0)
		} else {
			ic.add(int64(len(buf)))
		}
		next = next.Add(interval)
		if d := next.Sub(time.Now()); d > 0 {
			time.Sleep(d)
		}
	}
	res.Sent = int64(seq)

	// Ask the server for its receive stats (retry with backoff; the
	// link may still be in a blackout window).
	end := make([]byte, udpHeaderSize)
	marshalHeader(udpHeader{Magic: udpMagic, Type: udpTypeEnd, TestID: testID, Seq: seq}, end)
	reply := make([]byte, 2048)
	wait := 300 * time.Millisecond
	for attempt := 0; attempt < 6 && ctx.Err() == nil; attempt++ {
		conn.Write(end) // best effort: unreachable now may recover
		conn.SetReadDeadline(time.Now().Add(wait))
		n, err := conn.Read(reply)
		if err != nil {
			if wait < 2*time.Second {
				wait += 150 * time.Millisecond
			}
			continue
		}
		if h, ok := unmarshalHeader(reply[:n]); ok && h.Type == udpTypeStats && h.TestID == testID {
			res.Received = int64(h.Extra)
			res.JitterMs = float64(h.Seq) / 1000
			if res.Sent > 0 {
				res.LossRate = 1 - float64(res.Received)/float64(res.Sent)
				if res.LossRate < 0 {
					res.LossRate = 0
				}
			}
			res.TotalMbps = float64(res.Received) * float64(udpPayload) * 8 / cfg.Duration.Seconds() / 1e6
			res.Outcome = Complete
			if writeErrs > 0 {
				res.Outcome = Truncated
			}
			return nil
		}
	}
	// No stats reply: the server never came back. The send side is
	// still a usable partial record (Sent, intervals), so degrade to a
	// Failed outcome rather than discarding the test.
	res.Outcome = Failed
	res.LossRate = 1
	return nil
}

func runUDPDownload(ctx context.Context, conn *net.UDPConn, cfg ClientConfig, testID uint32, ic *intervalCounter, res *Result) error {
	req := make([]byte, udpHeaderSize)
	marshalHeader(udpHeader{
		Magic: udpMagic, Type: udpTypeReq, TestID: testID,
		SentNano: uint64(cfg.Duration), Extra: uint64(cfg.RateMbps * 1000),
	}, req)
	if _, err := conn.Write(req); err != nil {
		return err
	}
	buf := make([]byte, 64<<10)
	var (
		received, bytes int64
		maxSeq          uint64
		jitter          float64
		lastTx          uint64
		lastRx          time.Time
	)
	start := time.Now()
	sawEnd := false
	hardDeadline := start.Add(cfg.Duration + 3*time.Second)
	for time.Now().Before(hardDeadline) && ctx.Err() == nil {
		conn.SetReadDeadline(time.Now().Add(time.Second))
		n, err := conn.Read(buf)
		if err != nil {
			// Timeouts and ICMP-unreachable bursts both land here; in
			// a blackout the stream resumes when the window passes.
			continue
		}
		h, ok := unmarshalHeader(buf[:n])
		if !ok || h.TestID != testID {
			continue
		}
		if h.Type == udpTypeEnd {
			maxSeq = h.Seq
			sawEnd = true
			break
		}
		if h.Type != udpTypeData {
			continue
		}
		now := time.Now()
		received++
		bytes += int64(n)
		ic.add(int64(n))
		if h.Seq+1 > maxSeq {
			maxSeq = h.Seq + 1
		}
		if !lastRx.IsZero() {
			dTransit := float64(now.UnixNano()-int64(h.SentNano)) - float64(lastRx.UnixNano()-int64(lastTx))
			if dTransit < 0 {
				dTransit = -dTransit
			}
			jitter += (dTransit/1e9 - jitter) / 16
		}
		lastTx = h.SentNano
		lastRx = now
	}
	res.Sent = int64(maxSeq)
	res.Received = received
	if res.Sent > 0 {
		res.LossRate = 1 - float64(received)/float64(res.Sent)
		if res.LossRate < 0 {
			res.LossRate = 0
		}
	}
	res.JitterMs = jitter * 1000
	res.TotalMbps = float64(bytes*8) / cfg.Duration.Seconds() / 1e6
	switch {
	case received == 0:
		// The request or every reply vanished: nothing measured.
		res.Outcome = Failed
		res.LossRate = 1
	case sawEnd:
		res.Outcome = Complete
	case ctx.Err() != nil,
		lastRx.Sub(start) < cfg.Duration*3/4:
		// Cancelled mid-test, or the stream died well before the test
		// window ended (server killed, blackout to the end).
		res.Outcome = Truncated
	default:
		res.Outcome = Complete
	}
	return nil
}
