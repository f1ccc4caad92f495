package iperf

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// control is the JSON hello a client sends on each TCP data connection.
type control struct {
	Dir      Direction     `json:"dir"`
	Duration time.Duration `json:"duration"`
	ID       int           `json:"id"`
}

// uploadSummary is what the server returns after a TCP upload stream.
type uploadSummary struct {
	Bytes int64 `json:"bytes"`
}

// Server is an iPerf-style test server: a TCP listener and a UDP socket
// on the same port number.
type Server struct {
	ln  net.Listener
	udp *net.UDPConn

	mu     sync.Mutex
	udpRx  map[uint32]*udpRxState
	closed chan struct{}
	wg     sync.WaitGroup
}

type udpRxState struct {
	received int64
	bytes    int64
	lastTx   uint64
	lastRx   time.Time
	jitter   float64
	client   *net.UDPAddr
}

// NewServer starts a server on addr (e.g. "127.0.0.1:0").
func NewServer(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	tcpAddr := ln.Addr().(*net.TCPAddr)
	udp, err := net.ListenUDP("udp", &net.UDPAddr{IP: tcpAddr.IP, Port: tcpAddr.Port})
	if err != nil {
		ln.Close()
		return nil, err
	}
	s := &Server{
		ln:     ln,
		udp:    udp,
		udpRx:  make(map[uint32]*udpRxState),
		closed: make(chan struct{}),
	}
	s.wg.Add(2)
	go s.acceptLoop()
	go s.udpLoop()
	return s, nil
}

// Addr returns the server's TCP address (the UDP port is identical).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close shuts the server down.
func (s *Server) Close() error {
	select {
	case <-s.closed:
		return nil
	default:
	}
	close(s.closed)
	err := s.ln.Close()
	s.udp.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleTCP(c)
		}()
	}
}

// handleTCP serves one data connection: reads the control hello, then
// either sinks an upload or sources a download.
func (s *Server) handleTCP(c net.Conn) {
	defer c.Close()
	br := bufio.NewReader(c)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return
	}
	var ctl control
	if err := json.Unmarshal(line, &ctl); err != nil {
		return
	}
	switch ctl.Dir {
	case Upload:
		// Sink until the client half-closes, then report the count.
		n, _ := io.Copy(io.Discard, br)
		sum, _ := json.Marshal(uploadSummary{Bytes: n})
		c.Write(append(sum, '\n'))
	case Download:
		// Source bytes for the requested duration, then close.
		buf := make([]byte, 128<<10)
		deadline := time.Now().Add(ctl.Duration)
		for time.Now().Before(deadline) {
			select {
			case <-s.closed:
				return
			default:
			}
			c.SetWriteDeadline(time.Now().Add(2 * time.Second))
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}
}

func (s *Server) udpLoop() {
	defer s.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		n, from, err := s.udp.ReadFromUDP(buf)
		if err != nil {
			return
		}
		h, ok := unmarshalHeader(buf[:n])
		if !ok {
			continue
		}
		switch h.Type {
		case udpTypeData:
			s.onData(h, n, from)
		case udpTypeEnd:
			s.onEnd(h, from)
		case udpTypeReq:
			rate := float64(h.Extra) / 1000
			dur := time.Duration(h.SentNano)
			s.wg.Add(1)
			go func(to *net.UDPAddr, testID uint32) {
				defer s.wg.Done()
				s.serveUDPDownload(to, testID, rate, dur)
			}(from, h.TestID)
		}
	}
}

func (s *Server) onData(h udpHeader, n int, from *net.UDPAddr) {
	s.mu.Lock()
	st, ok := s.udpRx[h.TestID]
	if !ok {
		st = &udpRxState{client: from}
		s.udpRx[h.TestID] = st
	}
	now := time.Now()
	st.received++
	st.bytes += int64(n)
	if !st.lastRx.IsZero() {
		dTransit := float64(now.UnixNano()-int64(h.SentNano)) - float64(st.lastRx.UnixNano()-int64(st.lastTx))
		if dTransit < 0 {
			dTransit = -dTransit
		}
		st.jitter += (dTransit/1e9 - st.jitter) / 16
	}
	st.lastTx = h.SentNano
	st.lastRx = now
	s.mu.Unlock()
}

// onEnd answers an end-of-test marker with the receive statistics.
func (s *Server) onEnd(h udpHeader, from *net.UDPAddr) {
	s.mu.Lock()
	st := s.udpRx[h.TestID]
	var received, jitterUs uint64
	if st != nil {
		received = uint64(st.received)
		jitterUs = uint64(st.jitter * 1e6)
	}
	s.mu.Unlock()
	out := make([]byte, udpHeaderSize)
	marshalHeader(udpHeader{
		Magic: udpMagic, Type: udpTypeStats, TestID: h.TestID,
		Seq: jitterUs, Extra: received,
	}, out)
	s.udp.WriteToUDP(out, from)
}

// serveUDPDownload paces datagrams toward the client at rateMbps.
func (s *Server) serveUDPDownload(to *net.UDPAddr, testID uint32, rateMbps float64, dur time.Duration) {
	if rateMbps <= 0 {
		rateMbps = 1
	}
	interval := time.Duration(float64(udpPayload+28) * 8 / (rateMbps * 1e6) * float64(time.Second))
	if interval <= 0 {
		interval = time.Microsecond
	}
	buf := make([]byte, udpPayload)
	deadline := time.Now().Add(dur)
	next := time.Now()
	var seq uint64
	for time.Now().Before(deadline) {
		select {
		case <-s.closed:
			return
		default:
		}
		marshalHeader(udpHeader{
			Magic: udpMagic, Type: udpTypeData, TestID: testID,
			Seq: seq, SentNano: uint64(time.Now().UnixNano()),
		}, buf)
		seq++
		if _, err := s.udp.WriteToUDP(buf, to); err != nil {
			return
		}
		next = next.Add(interval)
		if d := next.Sub(time.Now()); d > 0 {
			time.Sleep(d)
		}
	}
	// End markers so the client can stop promptly.
	for i := 0; i < 3; i++ {
		end := make([]byte, udpHeaderSize)
		marshalHeader(udpHeader{Magic: udpMagic, Type: udpTypeEnd, TestID: testID, Seq: seq}, end)
		s.udp.WriteToUDP(end, to)
		time.Sleep(10 * time.Millisecond)
	}
}

// String describes the server.
func (s *Server) String() string { return fmt.Sprintf("iperf server on %s", s.Addr()) }
