// Package seqq holds the queues the replay kernel keeps per packet: a
// FIFO and a queue kept ascending by a 64-bit sequence number. Both
// keep their items in one backing array from a head index, so popping
// the front moves no memory and leaves the array's start to be reused:
// when an append finds the array full, the live items move back to its
// start, or, once they fill three quarters of it, to a new array of
// twice their number. Either way a move copies at most four items per
// append since the previous move, and the array grows geometrically.
package seqq

// FIFO is a first-in, first-out queue. The zero value is empty and
// ready to use.
type FIFO[T any] struct {
	buf  []T // buf[head:] are the queued items, oldest first
	head int
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Items returns the queued items, oldest first. The slice aliases the
// queue and is valid until the next Push or Pop.
func (q *FIFO[T]) Items() []T { return q.buf[q.head:] }

// Front returns the oldest item. The queue must not be empty.
func (q *FIFO[T]) Front() *T { return &q.buf[q.head] }

// Push appends v at the back.
func (q *FIFO[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) {
		q.compact()
	}
	q.buf = append(q.buf, v)
}

// Pop removes the oldest item. The queue must not be empty.
func (q *FIFO[T]) Pop() {
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// compact moves the live items to the start of the backing array, or to
// a new array of twice their number when they fill three quarters of
// the old one.
func (q *FIFO[T]) compact() {
	live := q.buf[q.head:]
	if 4*len(live) >= 3*cap(q.buf) {
		q.buf = append(make([]T, 0, max(64, 2*len(live))), live...)
	} else {
		n := copy(q.buf, live)
		clear(q.buf[n:])
		q.buf = q.buf[:n]
	}
	q.head = 0
}

// Entry is an item of a Sorted queue: a value under its sequence
// number.
type Entry[V any] struct {
	Seq int64
	Val V
}

// Sorted is a queue of entries kept ascending by sequence number, one
// entry per number: a receiver's out-of-order data, drained from the
// front as the in-order point reaches it. The zero value is empty and
// ready to use.
type Sorted[V any] struct {
	FIFO[Entry[V]]
}

// search returns the index in buf of the first entry at or above seq.
func (q *Sorted[V]) search(seq int64) int {
	lo, hi := q.head, len(q.buf)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if q.buf[m].Seq < seq {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Insert queues v under seq in order and reports true, or reports false
// and changes nothing when seq is already queued. An entry that lands
// nearer the front than the back is made room for by moving the front
// one slot into the space popping left.
func (q *Sorted[V]) Insert(seq int64, v V) bool {
	i := q.search(seq)
	switch {
	case i < len(q.buf) && q.buf[i].Seq == seq:
		return false
	case i == len(q.buf):
		q.Push(Entry[V]{seq, v})
	case q.head > 0 && i-q.head < len(q.buf)-i:
		copy(q.buf[q.head-1:], q.buf[q.head:i])
		q.head--
		q.buf[i-1] = Entry[V]{seq, v}
	default:
		if len(q.buf) == cap(q.buf) {
			i -= q.head
			q.compact()
		}
		q.buf = append(q.buf, Entry[V]{})
		copy(q.buf[i+1:], q.buf[i:])
		q.buf[i] = Entry[V]{seq, v}
	}
	return true
}
