package tcp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"satcell/internal/emu"
	"satcell/internal/seqq"
)

// refOOO is the receiver's out-of-order buffer written with a Go map
// from sequence number to segment, the way the connection kept it
// before its sequence-ordered queue. TestOutOfOrderQueueMatchesMap
// holds the queue to it.
type refOOO struct {
	rcvBuf    int
	rcvNxt    int64
	segs      map[int64]segment
	bytes     int
	refusals  int
	delivered []Chunk
}

func (r *refOOO) arrive(seg segment) {
	switch {
	case seg.seq == r.rcvNxt:
		r.accept(seg)
		for {
			next, ok := r.segs[r.rcvNxt]
			if !ok {
				break
			}
			delete(r.segs, r.rcvNxt)
			r.bytes -= next.length
			r.accept(next)
		}
	case seg.seq > r.rcvNxt:
		if _, dup := r.segs[seg.seq]; dup {
			return
		}
		if r.bytes+seg.length > r.rcvBuf {
			r.refusals++
			return
		}
		r.segs[seg.seq] = seg
		r.bytes += seg.length
	}
}

func (r *refOOO) accept(seg segment) {
	r.rcvNxt = seg.seq + int64(seg.length)
	r.delivered = append(r.delivered, Chunk{DSN: seg.dsn, Len: seg.length})
}

// oooCase is a stream cut into segments of the given lengths and the
// order in which they arrive, by index; an index may repeat.
type oooCase struct {
	name    string
	rcvBuf  int
	lens    []int
	arrival []int
}

// full is n segments of one MSS.
func full(n int) []int {
	lens := make([]int, n)
	for i := range lens {
		lens[i] = MSS
	}
	return lens
}

var oooCases = []oooCase{
	{"in order", 64 * MSS, full(5), []int{0, 1, 2, 3, 4}},
	{"reversed", 64 * MSS, full(5), []int{4, 3, 2, 1, 0}},
	{"duplicates", 64 * MSS, full(4), []int{2, 2, 3, 1, 1, 3, 0, 0, 2, 3}},
	{"short segments", 64 * MSS, []int{MSS, 100, 700, 1, MSS, 37}, []int{1, 3, 2, 5, 4, 0}},
	{"retransmissions below rcvNxt", 64 * MSS, full(4), []int{0, 1, 0, 1, 3, 0, 2, 3, 1}},
	{"hole filled last", 64 * MSS, full(8), []int{1, 2, 3, 4, 5, 6, 7, 0}},
	{"middle first", 64 * MSS, full(7), []int{4, 5, 6, 1, 2, 3, 0}},
	{"buffer refuses", 3 * MSS, full(8), []int{7, 6, 5, 4, 3, 2, 1, 0, 7, 6, 5, 4, 3, 2, 1}},
	{"refused then fits", 2*MSS + 100, []int{MSS, MSS, MSS, 100, MSS}, []int{1, 2, 4, 3, 0, 4, 3, 2, 1}},
	{"exact fit", 2 * MSS, full(4), []int{2, 3, 1, 0, 3, 2}},
}

// randomOOOCases adds seeded arrival sequences: segments shorter than an
// MSS, reordering, duplicates and retransmissions, against buffers small
// enough to refuse some of them. Every segment arrives at least once.
func randomOOOCases(n int) []oooCase {
	r := rand.New(rand.NewSource(7))
	cases := make([]oooCase, n)
	for i := range cases {
		lens := make([]int, 1+r.Intn(40))
		for j := range lens {
			lens[j] = MSS
			if r.Intn(3) == 0 {
				lens[j] = 1 + r.Intn(MSS)
			}
		}
		arrival := r.Perm(len(lens))
		for k := r.Intn(2 * len(lens)); k > 0; k-- {
			arrival = slices.Insert(arrival, r.Intn(len(arrival)+1), r.Intn(len(lens)))
		}
		cases[i] = oooCase{fmt.Sprintf("random %d", i), (1 + r.Intn(30)) * MSS / 2, lens, arrival}
	}
	return cases
}

// TestOutOfOrderQueueMatchesMap feeds each case's arrivals to a
// connection's receiver and to the map-based reference. After every
// arrival both must have delivered the same chunks in the same order,
// hold the same out-of-order bytes and have refused the same segments
// for want of buffer, and the connection's SACK ranges must cover
// exactly the segments it holds.
func TestOutOfOrderQueueMatchesMap(t *testing.T) {
	for _, tc := range append(oooCases, randomOOOCases(200)...) {
		t.Run(tc.name, func(t *testing.T) {
			segs := make([]segment, len(tc.lens))
			var seq int64
			for i, n := range tc.lens {
				segs[i] = segment{seq: seq, length: n, dsn: 1000 + seq}
				seq += int64(n)
			}

			eng := emu.NewEngine()
			discard := func(*emu.Packet) {}
			var got []Chunk
			c := NewConn(eng, 1, emu.NewLink(eng, emu.LinkConfig{}, discard), emu.NewLink(eng, emu.LinkConfig{}, discard),
				Config{RcvBuf: tc.rcvBuf, OnDeliver: func(ch Chunk) { got = append(got, ch) }})
			ref := refOOO{rcvBuf: tc.rcvBuf, segs: make(map[int64]segment)}
			refusals := 0

			for step, i := range tc.arrival {
				seg := segs[i]
				held := seg.seq > c.rcvNxt && !slices.ContainsFunc(c.oooSegs.Items(), func(e seqq.Entry[segment]) bool { return e.Seq == seg.seq })
				before := c.oooBytes
				dp := &dataPacket{seg: seg}
				dp.pkt = emu.Packet{Flow: 1, Seq: seg.seq, Size: seg.length + headerSize, Payload: dp}
				c.onData(&dp.pkt)
				if held && c.oooBytes == before {
					refusals++
				}
				ref.arrive(seg)

				if !slices.Equal(got, ref.delivered) {
					t.Fatalf("step %d (segment %d): delivered %v, reference %v", step, i, got, ref.delivered)
				}
				if c.rcvNxt != ref.rcvNxt || c.oooBytes != ref.bytes || c.oooSegs.Len() != len(ref.segs) {
					t.Fatalf("step %d (segment %d): rcvNxt %d, %d segments, %d bytes out of order; reference %d, %d, %d",
						step, i, c.rcvNxt, c.oooSegs.Len(), c.oooBytes, ref.rcvNxt, len(ref.segs), ref.bytes)
				}
				if refusals != ref.refusals {
					t.Fatalf("step %d (segment %d): %d refusals, reference %d", step, i, refusals, ref.refusals)
				}
				var ranges []sackRange
				for _, e := range c.oooSegs.Items() {
					if n := len(ranges); n > 0 && ranges[n-1].End == e.Seq {
						ranges[n-1].End += int64(e.Val.length)
					} else {
						ranges = append(ranges, sackRange{e.Seq, e.Seq + int64(e.Val.length)})
					}
				}
				if !slices.Equal(ranges, c.oooRanges) {
					t.Fatalf("step %d (segment %d): SACK ranges %v, held segments cover %v", step, i, c.oooRanges, ranges)
				}
			}
		})
	}
}
