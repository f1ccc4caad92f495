package netem

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"satcell/internal/vclock"
)

// FaultGate lets a fault schedule (internal/faults.Injector) intercept
// the live path of a relay. All methods receive the elapsed time since
// the relay started; a nil gate means a healthy world.
type FaultGate interface {
	// LinkDown reports whether the link is blacked out: datagrams are
	// swallowed, byte streams stall.
	LinkDown(elapsed time.Duration) bool
	// DialFails reports whether new sessions/connections are refused.
	DialFails(elapsed time.Duration) bool
	// Datagram may corrupt or truncate one datagram (in place) and
	// returns the payload to forward plus whether to drop it entirely.
	Datagram(elapsed time.Duration, pkt []byte) ([]byte, bool)
}

// timerRegistry tracks the pending delivery timers of a relay so Close
// can cancel them all at once. It replaces the old per-packet watchdog
// goroutine: under load a relay schedules thousands of delayed
// deliveries per second, and each used to pin a goroutine for the
// delay plus a second.
type timerRegistry struct {
	mu      sync.Mutex
	timers  map[uint64]*time.Timer
	nextID  uint64
	stopped bool
}

// after schedules fn after d, unless the registry is stopped first.
func (tr *timerRegistry) after(d time.Duration, fn func()) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.stopped {
		return
	}
	if tr.timers == nil {
		tr.timers = make(map[uint64]*time.Timer)
	}
	id := tr.nextID
	tr.nextID++
	tr.timers[id] = time.AfterFunc(d, func() {
		tr.mu.Lock()
		_, live := tr.timers[id]
		delete(tr.timers, id)
		tr.mu.Unlock()
		if live {
			fn()
		}
	})
}

// depth returns the number of pending delivery timers — the relay's
// in-flight packet population, exposed as a sampled gauge.
func (tr *timerRegistry) depth() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.timers)
}

// stopAll cancels every pending timer and refuses new ones.
func (tr *timerRegistry) stopAll() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.stopped = true
	for id, t := range tr.timers {
		t.Stop()
		delete(tr.timers, id)
	}
}

// UDPRelay forwards datagrams between clients and a target server,
// shaping each direction independently — the MpShell role for the UDP
// measurement tools. Clients send to the relay's address; the relay
// remembers each client and routes the server's responses back.
type UDPRelay struct {
	conn     *net.UDPConn
	target   *net.UDPAddr
	toServer *pacer // client -> server (uplink)
	toClient *pacer // server -> client (downlink)
	gate     FaultGate
	start    time.Time
	timers   timerRegistry
	obs      atomic.Pointer[relayObs]

	mu      sync.Mutex
	clients map[string]*clientSession
	closed  chan struct{}
	wg      sync.WaitGroup
}

type clientSession struct {
	addr   *net.UDPAddr
	server *net.UDPConn // dedicated socket toward the target
}

// NewUDPRelay starts a relay listening on listenAddr ("127.0.0.1:0" for
// an ephemeral port) forwarding to targetAddr. up shapes client->server
// traffic, down shapes server->client traffic.
func NewUDPRelay(listenAddr, targetAddr string, up, down Shape, seed int64) (*UDPRelay, error) {
	return NewUDPRelayFaulty(listenAddr, targetAddr, up, down, seed, nil)
}

// NewUDPRelayFaulty is NewUDPRelay with a fault gate on the datagram
// path: blackout windows swallow datagrams in both directions, dial
// failures refuse new client sessions, and corruption/truncation
// mangle payloads in flight.
func NewUDPRelayFaulty(listenAddr, targetAddr string, up, down Shape, seed int64, gate FaultGate) (*UDPRelay, error) {
	la, err := net.ResolveUDPAddr("udp", listenAddr)
	if err != nil {
		return nil, err
	}
	ta, err := net.ResolveUDPAddr("udp", targetAddr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", la)
	if err != nil {
		return nil, err
	}
	r := &UDPRelay{
		conn:     conn,
		target:   ta,
		toServer: newPacer(up, seed*2+1, vclock.Wall),
		toClient: newPacer(down, seed*2+2, vclock.Wall),
		gate:     gate,
		start:    time.Now(),
		clients:  make(map[string]*clientSession),
		closed:   make(chan struct{}),
	}
	r.wg.Add(1)
	go r.clientLoop()
	return r, nil
}

// Addr returns the relay's client-facing address.
func (r *UDPRelay) Addr() *net.UDPAddr { return r.conn.LocalAddr().(*net.UDPAddr) }

// Close stops the relay.
func (r *UDPRelay) Close() error {
	select {
	case <-r.closed:
		return nil
	default:
	}
	close(r.closed)
	err := r.conn.Close()
	r.timers.stopAll()
	r.mu.Lock()
	for _, cs := range r.clients {
		cs.server.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
	return err
}

func (r *UDPRelay) clientLoop() {
	defer r.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		n, from, err := r.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		elapsed := time.Since(r.start)
		o := r.obs.Load()
		o.in(elapsed, "up", n)
		if r.gate != nil && r.gate.LinkDown(elapsed) {
			o.drop(elapsed, "up", n, "blackout")
			continue // blackout: the datagram vanishes
		}
		cs := r.session(from, elapsed)
		if cs == nil {
			o.drop(elapsed, "up", n, "refused")
			continue
		}
		deliverAt, drop := r.toServer.admit(n)
		o.observeQueue(r.toServer)
		if drop {
			o.drop(elapsed, "up", n, "shaper")
			continue
		}
		pkt := make([]byte, n)
		copy(pkt, buf[:n])
		if r.gate != nil {
			var gone bool
			if pkt, gone = r.gate.Datagram(elapsed, pkt); gone {
				o.drop(elapsed, "up", n, "gate")
				continue
			}
		}
		r.deliverLater(deliverAt, func() {
			cs.server.Write(pkt)
			r.obs.Load().delivered(time.Since(r.start), "up", n)
		})
	}
}

// session returns (creating if needed) the per-client forwarding state.
func (r *UDPRelay) session(from *net.UDPAddr, elapsed time.Duration) *clientSession {
	key := from.String()
	r.mu.Lock()
	defer r.mu.Unlock()
	if cs, ok := r.clients[key]; ok {
		return cs
	}
	if r.gate != nil && r.gate.DialFails(elapsed) {
		r.obs.Load().refusedSession(elapsed, key)
		return nil // new sessions refused; the client's datagram is lost
	}
	server, err := net.DialUDP("udp", nil, r.target)
	if err != nil {
		r.obs.Load().refusedSession(elapsed, key)
		return nil
	}
	cs := &clientSession{addr: from, server: server}
	r.clients[key] = cs
	r.obs.Load().sessionStart(elapsed, key)
	r.wg.Add(1)
	go r.serverLoop(cs)
	return cs
}

func (r *UDPRelay) serverLoop(cs *clientSession) {
	defer r.wg.Done()
	defer func() { r.obs.Load().sessionEnd(time.Since(r.start), cs.addr.String()) }()
	buf := make([]byte, 64<<10)
	for {
		n, err := cs.server.Read(buf)
		if err != nil {
			return
		}
		elapsed := time.Since(r.start)
		o := r.obs.Load()
		o.in(elapsed, "down", n)
		if r.gate != nil && r.gate.LinkDown(elapsed) {
			o.drop(elapsed, "down", n, "blackout")
			continue
		}
		deliverAt, drop := r.toClient.admit(n)
		o.observeQueue(r.toClient)
		if drop {
			o.drop(elapsed, "down", n, "shaper")
			continue
		}
		pkt := make([]byte, n)
		copy(pkt, buf[:n])
		if r.gate != nil {
			var gone bool
			if pkt, gone = r.gate.Datagram(elapsed, pkt); gone {
				o.drop(elapsed, "down", n, "gate")
				continue
			}
		}
		addr := cs.addr
		r.deliverLater(deliverAt, func() {
			r.conn.WriteToUDP(pkt, addr)
			r.obs.Load().delivered(time.Since(r.start), "down", n)
		})
	}
}

// deliverLater schedules fn at the given time, unless the relay closes.
func (r *UDPRelay) deliverLater(at time.Time, fn func()) {
	d := at.Sub(time.Now())
	if d <= 0 {
		fn()
		return
	}
	r.timers.after(d, fn)
}

// TCPRelay accepts TCP connections and forwards them to a target,
// pacing each direction at the shape's rate with added one-way delay.
// The kernel's own TCP handles reliability below the relay, so loss is
// not emulated here (shape.LossProb is ignored); blackout windows stall
// the byte stream instead of dropping it, which is what a real outage
// does to TCP.
type TCPRelay struct {
	streamLink
	ln     net.Listener
	target string
	up     Shape
	down   Shape
	wg     sync.WaitGroup
}

// NewTCPRelay starts a TCP relay on listenAddr forwarding to targetAddr.
func NewTCPRelay(listenAddr, targetAddr string, up, down Shape) (*TCPRelay, error) {
	return NewTCPRelayFaulty(listenAddr, targetAddr, up, down, nil)
}

// NewTCPRelayFaulty is NewTCPRelay with a fault gate: dial-failure
// windows refuse new connections, blackout windows freeze both pump
// directions until the window passes (or the relay closes).
func NewTCPRelayFaulty(listenAddr, targetAddr string, up, down Shape, gate FaultGate) (*TCPRelay, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, err
	}
	r := &TCPRelay{
		streamLink: streamLink{gate: gate, start: time.Now(), closed: make(chan struct{})},
		ln:         ln, target: targetAddr, up: up, down: down,
	}
	r.wg.Add(1)
	go r.acceptLoop()
	return r, nil
}

// Addr returns the relay's client-facing address.
func (r *TCPRelay) Addr() net.Addr { return r.ln.Addr() }

// Close stops the relay. In-flight connections are severed.
func (r *TCPRelay) Close() error {
	select {
	case <-r.closed:
		return nil
	default:
	}
	close(r.closed)
	err := r.ln.Close()
	r.wg.Wait()
	return err
}

func (r *TCPRelay) acceptLoop() {
	defer r.wg.Done()
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return
		}
		peer := c.RemoteAddr().String()
		if r.gate != nil && r.gate.DialFails(time.Since(r.start)) {
			r.obs.Load().refusedSession(time.Since(r.start), peer)
			c.Close() // connection refused by the scenario
			continue
		}
		upstream, err := net.Dial("tcp", r.target)
		if err != nil {
			r.obs.Load().refusedSession(time.Since(r.start), peer)
			c.Close()
			continue
		}
		r.obs.Load().sessionStart(time.Since(r.start), peer)
		var endOnce sync.Once
		run := func(src, dst net.Conn, shape Shape, dir string) {
			defer r.wg.Done()
			r.pump(src, dst, shape, dir)
			// The connection's first pump to exit ends the session.
			endOnce.Do(func() { r.obs.Load().sessionEnd(time.Since(r.start), peer) })
		}
		r.wg.Add(2)
		go run(c, upstream, r.up, "up")
		go run(upstream, c, r.down, "down")
	}
}
