package iperf

import (
	"context"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// severProxy forwards TCP connections to target, killing connection
// number killIdx (0-based accept order) after killAfter. A killAfter of
// 0 closes it before any byte is forwarded, so the client never sees
// data on it. Other connections run untouched. Returns the proxy
// address.
func severProxy(t *testing.T, target string, killIdx int32, killAfter time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var idx int32 = -1
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				c.Close()
				continue
			}
			i := atomic.AddInt32(&idx, 1)
			if i == killIdx && killAfter == 0 {
				c.Close()
				up.Close()
				continue
			}
			go io.Copy(up, c)
			go io.Copy(c, up)
			if i == killIdx {
				go func() {
					time.Sleep(killAfter)
					c.Close()
					up.Close()
				}()
			}
		}
	}()
	return ln.Addr().String()
}

// TestTCPStreamDeathTruncates kills the (only) download stream partway
// through: the run must return a partial Result marked Truncated — not
// an error — with throughput computed over the surviving window.
func TestTCPStreamDeathTruncates(t *testing.T) {
	s := newServer(t)
	addr := severProxy(t, s.Addr().String(), 0, 400*time.Millisecond)
	res, err := Run(context.Background(), ClientConfig{
		Addr: addr, Proto: TCP, Dir: Download, Duration: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("mid-test stream death must degrade, not error: %v", err)
	}
	if res.Outcome != Truncated {
		t.Fatalf("Outcome = %v, want %v", res.Outcome, Truncated)
	}
	if len(res.Streams) != 1 || res.Streams[0].Bytes == 0 {
		t.Fatalf("expected one surviving stream with data, got %+v", res.Streams)
	}
	sr := res.Streams[0]
	if !sr.Truncated {
		t.Fatal("stream not marked truncated")
	}
	// The rate denominator must be the actual transfer window (~0.4s),
	// not the configured 2s — a 5x dilution otherwise.
	if sr.Duration > time.Second {
		t.Fatalf("stream duration %v, want ~400ms", sr.Duration)
	}
	if sr.Mbps <= 0 {
		t.Fatalf("Mbps = %v, want > 0 over the surviving window", sr.Mbps)
	}
}

// TestTCPParallelSurvivorsAggregate kills one of three streams at
// accept time (before it moves data): the other two must be summed into
// a Truncated result with the dead stream counted, not discarded.
func TestTCPParallelSurvivorsAggregate(t *testing.T) {
	s := newServer(t)
	addr := severProxy(t, s.Addr().String(), 1, 0)
	res, err := Run(context.Background(), ClientConfig{
		Addr: addr, Proto: TCP, Dir: Download,
		Duration: time.Second, Parallel: 3,
	})
	if err != nil {
		t.Fatalf("one dead stream of three must not fail the test: %v", err)
	}
	if res.Outcome != Truncated {
		t.Fatalf("Outcome = %v, want %v", res.Outcome, Truncated)
	}
	if len(res.Streams) < 2 {
		t.Fatalf("expected >=2 surviving streams, got %d", len(res.Streams))
	}
	if res.FailedStreams < 1 {
		t.Fatalf("FailedStreams = %d, want >=1", res.FailedStreams)
	}
	if res.TotalMbps <= 0 {
		t.Fatal("survivors produced no aggregate throughput")
	}
}

// TestTCPAllStreamsDeadErrors is the boundary: when every stream fails
// the test has measured nothing and must error.
func TestTCPAllStreamsDeadErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens: every dial is refused
	_, err = Run(context.Background(), ClientConfig{
		Addr: addr, Proto: TCP, Dir: Download,
		Duration: 500 * time.Millisecond, Parallel: 2,
	})
	if err == nil {
		t.Fatal("all-streams-failed test must return an error")
	}
}

// TestDialRetryReconnects starts the server only after the client's
// first dial attempts have failed: the jittered backoff retries must
// pick the connection up once the listener appears.
func TestDialRetryReconnects(t *testing.T) {
	// Reserve a port, free it, then bring the server up on it late.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	go func() {
		time.Sleep(300 * time.Millisecond)
		s, err := NewServer(addr)
		if err != nil {
			return
		}
		time.Sleep(5 * time.Second)
		s.Close()
	}()
	res, err := Run(context.Background(), ClientConfig{
		Addr: addr, Proto: TCP, Dir: Download,
		Duration:    500 * time.Millisecond,
		DialRetries: 8, RetryBackoff: 100 * time.Millisecond, Seed: 4,
	})
	if err != nil {
		t.Fatalf("retries should have reached the late server: %v", err)
	}
	if res.TotalMbps <= 0 {
		t.Fatal("no data after reconnect")
	}
}

// TestUDPUploadServerGoneDegrades sends an upload at a dead port: every
// write raises ICMP unreachable and no stats reply ever comes. The run
// must finish (no hang), returning a Failed partial record with the
// send side intact rather than an error.
func TestUDPUploadServerGoneDegrades(t *testing.T) {
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	addr := c.LocalAddr().String()
	c.Close() // port now dead
	res, err := Run(context.Background(), ClientConfig{
		Addr: addr, Proto: UDP, Dir: Upload,
		Duration: 300 * time.Millisecond, RateMbps: 5,
	})
	if err != nil {
		t.Fatalf("dead server must degrade, not error: %v", err)
	}
	if res.Outcome != Failed {
		t.Fatalf("Outcome = %v, want %v", res.Outcome, Failed)
	}
	if res.Sent == 0 {
		t.Fatal("send side should still be recorded")
	}
	if res.LossRate != 1 {
		t.Fatalf("LossRate = %v, want 1", res.LossRate)
	}
}

// TestUDPDownloadServerGoneFails requests a download from a dead port:
// nothing is received, and the result must say so as a Failed outcome.
func TestUDPDownloadServerGoneFails(t *testing.T) {
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	addr := c.LocalAddr().String()
	c.Close()
	res, err := Run(context.Background(), ClientConfig{
		Addr: addr, Proto: UDP, Dir: Download,
		Duration: 300 * time.Millisecond, RateMbps: 5,
	})
	if err != nil {
		t.Fatalf("dead server must degrade, not error: %v", err)
	}
	if res.Outcome != Failed || res.Received != 0 {
		t.Fatalf("got Outcome=%v Received=%d, want failed with nothing received",
			res.Outcome, res.Received)
	}
}

// TestTCPCompleteOutcome pins the healthy path: a clean run is
// Complete with zero failed streams.
func TestTCPCompleteOutcome(t *testing.T) {
	s := newServer(t)
	res, err := Run(context.Background(), ClientConfig{
		Addr: s.Addr().String(), Proto: TCP, Dir: Download,
		Duration: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Complete || res.FailedStreams != 0 {
		t.Fatalf("healthy run: Outcome=%v FailedStreams=%d", res.Outcome, res.FailedStreams)
	}
}
