// Package udpping reimplements the paper's UDP-Ping tool (§3.2): the
// authors measure latency with 1024-byte UDP probes because ICMP is
// often blocked or deprioritised. The client stamps each probe with a
// sequence number and send time; the server echoes it back; the client
// reports per-probe RTTs and loss.
package udpping

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"time"

	"satcell/internal/obs"
)

// PayloadSize matches the paper: 1024 bytes per probe.
const PayloadSize = 1024

const (
	magic      = 0x70C9
	headerSize = 20
)

// Server echoes probes until closed.
type Server struct {
	conn   *net.UDPConn
	closed chan struct{}
	wg     sync.WaitGroup
}

// NewServer starts an echo server on addr (e.g. "127.0.0.1:0").
func NewServer(addr string) (*Server, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	s := &Server{conn: conn, closed: make(chan struct{})}
	s.wg.Add(1)
	go s.loop()
	return s, nil
}

// Addr returns the server's address.
func (s *Server) Addr() *net.UDPAddr { return s.conn.LocalAddr().(*net.UDPAddr) }

// Close stops the server.
func (s *Server) Close() error {
	select {
	case <-s.closed:
		return nil
	default:
	}
	close(s.closed)
	err := s.conn.Close()
	s.wg.Wait()
	return err
}

func (s *Server) loop() {
	defer s.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		n, from, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		if n < headerSize || binary.BigEndian.Uint16(buf) != magic {
			continue
		}
		s.conn.WriteToUDP(buf[:n], from)
	}
}

// Probe is one ping result.
type Probe struct {
	Seq  uint64
	RTT  time.Duration
	Lost bool
}

// Result summarises a ping run.
type Result struct {
	Sent     int
	Received int
	Probes   []Probe
	// WriteErrors counts probes whose send itself failed (ICMP
	// unreachable while the far end was down); they are recorded as
	// lost probes, not run-aborting errors.
	WriteErrors int
	// Interrupted marks a run cancelled before every probe was sent;
	// Sent reflects the probes actually attempted.
	Interrupted bool
}

// LossRate returns the fraction of unanswered probes.
func (r Result) LossRate() float64 {
	if r.Sent == 0 {
		return 0
	}
	return 1 - float64(r.Received)/float64(r.Sent)
}

// RTTsMs returns the answered probes' RTTs in milliseconds.
func (r Result) RTTsMs() []float64 {
	out := make([]float64, 0, r.Received)
	for _, p := range r.Probes {
		if !p.Lost {
			out = append(out, p.RTT.Seconds()*1000)
		}
	}
	return out
}

// Config controls a ping run.
type Config struct {
	Addr     string        // server address
	Count    int           // probes to send; default 10
	Interval time.Duration // default 200 ms
	Timeout  time.Duration // per-probe timeout; default 2 s

	// Metrics, when non-nil, receives live per-probe progress:
	// udpping.sent, udpping.received and udpping.write_errors counters,
	// plus the udpping.rtt_ms histogram of answered probes.
	Metrics *obs.Registry
}

// Run performs a ping run. Probes are sent at the configured interval;
// replies are matched by sequence number, so late replies still count
// (within the trailing timeout window).
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Count <= 0 {
		cfg.Count = 10
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 200 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	raddr, err := net.ResolveUDPAddr("udp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()

	type echo struct {
		seq uint64
		rtt time.Duration
	}
	echoes := make(chan echo, cfg.Count)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 64<<10)
		for {
			n, err := conn.Read(buf)
			if err != nil {
				if errors.Is(err, net.ErrClosed) {
					return
				}
				// Transient: ICMP unreachable while the far end is
				// down. Later echoes must still be collected.
				continue
			}
			if n < headerSize || binary.BigEndian.Uint16(buf) != magic {
				continue
			}
			seq := binary.BigEndian.Uint64(buf[4:])
			sent := int64(binary.BigEndian.Uint64(buf[12:]))
			select {
			case echoes <- echo{seq: seq, rtt: time.Duration(time.Now().UnixNano() - sent)}:
			default:
				// Collector gone or buffer full (duplicate echoes):
				// dropping is safe, blocking would wedge the reader.
			}
		}
	}()

	payload := make([]byte, PayloadSize)
	binary.BigEndian.PutUint16(payload, magic)
	sent := 0
	writeErrs := 0
	sentCtr := cfg.Metrics.Counter("udpping.sent")
	werrCtr := cfg.Metrics.Counter("udpping.write_errors")
	for seq := 0; seq < cfg.Count && ctx.Err() == nil; seq++ {
		binary.BigEndian.PutUint64(payload[4:], uint64(seq))
		binary.BigEndian.PutUint64(payload[12:], uint64(time.Now().UnixNano()))
		if _, err := conn.Write(payload); err != nil {
			// An unreachable far end (killed relay/server, blackout)
			// surfaces here as ICMP errors on the connected socket.
			// The probe is simply lost; keep probing — the link may
			// come back mid-run, exactly like a drive-test outage.
			writeErrs++
			werrCtr.Inc()
		}
		sent++
		sentCtr.Inc()
		if seq < cfg.Count-1 {
			select {
			case <-time.After(cfg.Interval):
			case <-ctx.Done():
			}
		}
	}

	// Collect replies until the trailing timeout (or cancellation).
	rtts := make(map[uint64]time.Duration, sent)
	recvCtr := cfg.Metrics.Counter("udpping.received")
	rttHist := cfg.Metrics.Histogram("udpping.rtt_ms", obs.RTTMsBuckets)
	deadline := time.After(cfg.Timeout)
collect:
	for len(rtts) < sent {
		select {
		case e := <-echoes:
			if _, dup := rtts[e.seq]; !dup && e.seq < uint64(sent) {
				rtts[e.seq] = e.rtt
				recvCtr.Inc()
				rttHist.Observe(e.rtt.Seconds() * 1000)
			}
		case <-deadline:
			break collect
		case <-ctx.Done():
			break collect
		}
	}
	conn.Close()
	wg.Wait()

	res := &Result{Sent: sent, WriteErrors: writeErrs, Interrupted: sent < cfg.Count}
	for seq := uint64(0); seq < uint64(sent); seq++ {
		if rtt, ok := rtts[seq]; ok {
			res.Received++
			res.Probes = append(res.Probes, Probe{Seq: seq, RTT: rtt})
		} else {
			res.Probes = append(res.Probes, Probe{Seq: seq, Lost: true})
		}
	}
	return res, nil
}
