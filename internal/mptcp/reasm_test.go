package mptcp

import (
	"testing"
	"time"

	"satcell/internal/channel"
	"satcell/internal/emu"
	"satcell/internal/tcp"
)

// refReasm is the connection-level reassembly written with a Go map
// from DSN to chunk length, the way the connection kept it before its
// DSN-ordered queue. FuzzReassembly holds the queue to it.
type refReasm struct {
	rcvNxt    int64
	chunks    map[int64]int
	bytes     int
	delivered int64
}

func (r *refReasm) deliver(ch tcp.Chunk) {
	switch {
	case ch.DSN == r.rcvNxt:
		r.accept(ch.Len)
		for {
			n, ok := r.chunks[r.rcvNxt]
			if !ok {
				break
			}
			delete(r.chunks, r.rcvNxt)
			r.bytes -= n
			r.accept(n)
		}
	case ch.DSN > r.rcvNxt:
		if _, dup := r.chunks[ch.DSN]; !dup {
			r.chunks[ch.DSN] = ch.Len
			r.bytes += ch.Len
		}
	}
}

func (r *refReasm) accept(n int) {
	r.rcvNxt += int64(n)
	r.delivered += int64(n)
}

// allowAll lets every subflow take data whenever it asks, so the fuzz
// input alone decides which subflow carries which chunk.
type allowAll struct{}

func (allowAll) Name() string          { return "all" }
func (allowAll) Allow(*Conn, int) bool { return true }

// FuzzReassembly drives a two-subflow connection's data source and
// reassembly with a decoded sequence of steps, and a map-based
// reference with the same arrivals. The first byte sizes the receive
// buffer (a quarter MSS to eight MSS); each further byte is one step:
// bit 0 picks the subflow, bits 1-2 the step and bits 3-7 its argument.
//
//	0  the subflow asks for a full MSS of new data
//	1  the subflow asks for (argument+1)/32 of an MSS (a short chunk)
//	2  the subflow delivers the oldest chunk it carries (subflows
//	   deliver in the order they were handed data)
//	3  a chunk handed out earlier (the argument counts back from the
//	   newest) arrives again on the subflow: a reinjection or
//	   retransmission racing its original, or an older DSN filling a
//	   hole
//
// After every step both must have delivered the same bytes in order
// and hold the same out-of-order bytes, and the data source must have
// refused new data exactly when the reference's window was full. At
// the end each subflow delivers what it still carries: the connection
// must then have delivered everything it handed out, with nothing left
// in reassembly or outstanding on a subflow.
func FuzzReassembly(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		rcvBuf := (1 + int(data[0])%32) * tcp.MSS / 4
		eng := emu.NewEngine()
		tr := flatTrace(channel.ATT, 10, 1, 20*time.Millisecond, 0, 1)
		paths := []*emu.DuplexPath{
			emu.NewDuplexPath(eng, tr, emu.PathConfig{Seed: 1}),
			emu.NewDuplexPath(eng, tr, emu.PathConfig{Seed: 2}),
		}
		c := NewConn(eng, paths, 1, Config{RcvBuf: rcvBuf, Scheduler: allowAll{}})
		ref := refReasm{chunks: make(map[int64]int)}
		var carried [2][]tcp.Chunk // per subflow: handed out, not yet delivered
		var minted []tcp.Chunk

		deliver := func(s int, ch tcp.Chunk) {
			c.onDeliver(s, ch)
			ref.deliver(ch)
		}
		check := func(step int) {
			t.Helper()
			if c.rcvNxtDSN != ref.rcvNxt || c.delivered != ref.delivered {
				t.Fatalf("step %d: delivered %d bytes up to DSN %d, reference %d up to %d",
					step, c.delivered, c.rcvNxtDSN, ref.delivered, ref.rcvNxt)
			}
			if c.reasmByte != ref.bytes || c.reasm.Len() != len(ref.chunks) {
				t.Fatalf("step %d: reassembly holds %d chunks, %d bytes; reference %d chunks, %d bytes",
					step, c.reasm.Len(), c.reasmByte, len(ref.chunks), ref.bytes)
			}
		}

		for i, b := range data[1:] {
			s, arg := int(b&1), int(b>>3)
			switch b >> 1 & 3 {
			case 0, 1:
				maxBytes := tcp.MSS
				if b>>1&3 == 1 {
					maxBytes = (arg + 1) * tcp.MSS / 32
				}
				full := rcvBuf-int(c.sndNxtDSN-ref.rcvNxt) < maxBytes
				ch, ok := (&subflowSource{c: c, idx: s}).Next(maxBytes)
				if ok == full {
					t.Fatalf("step %d: source gave %v (ok %v) for %d bytes with %d of %d in the window",
						i, ch, ok, maxBytes, c.sndNxtDSN-ref.rcvNxt, rcvBuf)
				}
				if ok {
					carried[s] = append(carried[s], ch)
					minted = append(minted, ch)
				}
			case 2:
				if len(carried[s]) > 0 {
					ch := carried[s][0]
					carried[s] = carried[s][1:]
					deliver(s, ch)
				}
			case 3:
				if len(minted) > 0 {
					deliver(s, minted[len(minted)-1-arg%len(minted)])
				}
			}
			check(i)
		}

		for s := range carried {
			for _, ch := range carried[s] {
				deliver(s, ch)
			}
		}
		check(len(data))
		if c.rcvNxtDSN != c.sndNxtDSN || c.reasm.Len() != 0 {
			t.Fatalf("drained: delivered up to DSN %d of %d, %d chunks left in reassembly",
				c.rcvNxtDSN, c.sndNxtDSN, c.reasm.Len())
		}
		for s := range c.assigned {
			if n := c.assigned[s].Len(); n != 0 {
				t.Fatalf("drained: subflow %d still has %d chunks outstanding", s, n)
			}
		}
	})
}
