package iperf

import (
	"context"
	"testing"
	"time"

	"satcell/internal/netem"
)

func newServer(t *testing.T) *Server {
	t.Helper()
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestHeaderRoundTrip(t *testing.T) {
	h := udpHeader{Magic: udpMagic, Type: udpTypeData, TestID: 77, Seq: 123456, SentNano: 987654321, Extra: 42}
	buf := make([]byte, udpHeaderSize)
	marshalHeader(h, buf)
	got, ok := unmarshalHeader(buf)
	if !ok || got != h {
		t.Fatalf("round trip: %+v != %+v", got, h)
	}
	if _, ok := unmarshalHeader(buf[:10]); ok {
		t.Fatal("short buffer should fail")
	}
	buf[0] = 0
	if _, ok := unmarshalHeader(buf); ok {
		t.Fatal("bad magic should fail")
	}
}

func TestTCPDownload(t *testing.T) {
	s := newServer(t)
	res, err := Run(context.Background(), ClientConfig{
		Addr: s.Addr().String(), Proto: TCP, Dir: Download,
		Duration: 600 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMbps < 100 {
		t.Fatalf("loopback TCP download only %v Mbps", res.TotalMbps)
	}
	if len(res.Streams) != 1 || res.Streams[0].Bytes == 0 {
		t.Fatalf("stream results: %+v", res.Streams)
	}
	if len(res.Intervals) == 0 {
		t.Fatal("no interval reports")
	}
}

func TestTCPUploadServerCount(t *testing.T) {
	s := newServer(t)
	res, err := Run(context.Background(), ClientConfig{
		Addr: s.Addr().String(), Proto: TCP, Dir: Upload,
		Duration: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMbps < 50 {
		t.Fatalf("loopback TCP upload only %v Mbps", res.TotalMbps)
	}
}

func TestTCPParallelStreams(t *testing.T) {
	s := newServer(t)
	res, err := Run(context.Background(), ClientConfig{
		Addr: s.Addr().String(), Proto: TCP, Dir: Download,
		Duration: 500 * time.Millisecond, Parallel: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Streams) != 4 {
		t.Fatalf("want 4 streams, got %d", len(res.Streams))
	}
	if res.Parallel != 4 {
		t.Fatal("parallel field wrong")
	}
}

func TestUDPUploadWithLossReport(t *testing.T) {
	s := newServer(t)
	res, err := Run(context.Background(), ClientConfig{
		Addr: s.Addr().String(), Proto: UDP, Dir: Upload,
		Duration: 500 * time.Millisecond, RateMbps: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 || res.Received == 0 {
		t.Fatalf("no packets: %+v", res)
	}
	if res.LossRate > 0.05 {
		t.Fatalf("loopback loss %v too high", res.LossRate)
	}
	if res.TotalMbps < 15 || res.TotalMbps > 25 {
		t.Fatalf("UDP upload rate %v, want ~20", res.TotalMbps)
	}
}

func TestUDPDownload(t *testing.T) {
	s := newServer(t)
	res, err := Run(context.Background(), ClientConfig{
		Addr: s.Addr().String(), Proto: UDP, Dir: Download,
		Duration: 500 * time.Millisecond, RateMbps: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Received == 0 {
		t.Fatal("nothing received")
	}
	if res.TotalMbps < 14 || res.TotalMbps > 26 {
		t.Fatalf("UDP download rate %v, want ~20", res.TotalMbps)
	}
}

func TestUDPThroughRelayIsShaped(t *testing.T) {
	s := newServer(t)
	relay, err := netem.NewUDPRelay("127.0.0.1:0", s.Addr().String(),
		netem.ConstantShape(1000, time.Millisecond, 0),
		netem.ConstantShape(5, time.Millisecond, 0), 9)
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	res, err := Run(context.Background(), ClientConfig{
		Addr: relay.Addr().String(), Proto: UDP, Dir: Download,
		Duration: time.Second, RateMbps: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Offered 30, shaped to 5: measured goodput must track the shape
	// and the loss must be visible.
	if res.TotalMbps > 8 {
		t.Fatalf("relay-shaped download %v Mbps, want ~5", res.TotalMbps)
	}
	if res.LossRate < 0.5 {
		t.Fatalf("expected heavy loss from shaping, got %v", res.LossRate)
	}
}

func TestBadProto(t *testing.T) {
	if _, err := Run(context.Background(), ClientConfig{Addr: "127.0.0.1:1", Proto: "quic"}); err == nil {
		t.Fatal("unknown proto should fail")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTCPThroughRelayIsShaped(t *testing.T) {
	s := newServer(t)
	relay, err := netem.NewTCPRelay("127.0.0.1:0", s.Addr().String(),
		netem.ConstantShape(1000, time.Millisecond, 0),
		netem.ConstantShape(12, 5*time.Millisecond, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	res, err := Run(context.Background(), ClientConfig{
		Addr: relay.Addr().String(), Proto: TCP, Dir: Download,
		Duration: 1200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Shaped to 12 Mbps: far below loopback line rate.
	if res.TotalMbps > 30 {
		t.Fatalf("TCP download through 12 Mbps relay measured %v", res.TotalMbps)
	}
	if res.TotalMbps < 3 {
		t.Fatalf("relay nearly dead: %v Mbps", res.TotalMbps)
	}
}

// TestTCPDownloadTimesToLastByte runs a download through a relay that
// drains the server's socket buffers well after the server stops: the
// rate must be the bytes over the time to the last one received, which
// the shaped link caps, not over the configured duration.
func TestTCPDownloadTimesToLastByte(t *testing.T) {
	s := newServer(t)
	const rate = 20
	relay, err := netem.NewTCPRelay("127.0.0.1:0", s.Addr().String(),
		netem.ConstantShape(1000, time.Millisecond, 0),
		netem.ConstantShape(rate, 30*time.Millisecond, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	res, err := Run(context.Background(), ClientConfig{
		Addr: relay.Addr().String(), Proto: TCP, Dir: Download, Duration: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%.2f Mbps over %v", res.TotalMbps, res.Streams[0].Duration)
	if res.TotalMbps > rate*1.05 {
		t.Fatalf("download through a %d Mbps relay measured %.2f Mbps", rate, res.TotalMbps)
	}
	if res.Outcome != Complete {
		t.Fatalf("Outcome = %v, want %v", res.Outcome, Complete)
	}
}
