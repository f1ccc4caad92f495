package seqq

import (
	"math/rand"
	"slices"
	"testing"
)

// TestFIFOMatchesSlice drives a FIFO and a plain slice with the same
// random pushes and pops; both must hold the same items after every
// step, through every compaction and growth of the backing array.
func TestFIFOMatchesSlice(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var q FIFO[int]
	var want []int
	next := 0
	for step := 0; step < 20000; step++ {
		// The queue grows for the first half of the steps and drains in
		// the second.
		push := r.Intn(10) < 6
		if step >= 10000 {
			push = r.Intn(10) < 4
		}
		if push || len(want) == 0 {
			q.Push(next)
			want = append(want, next)
			next++
		} else {
			if got := *q.Front(); got != want[0] {
				t.Fatalf("step %d: front %d, want %d", step, got, want[0])
			}
			q.Pop()
			want = want[1:]
		}
		if !slices.Equal(q.Items(), want) || q.Len() != len(want) {
			t.Fatalf("step %d: queue %v, want %v", step, q.Items(), want)
		}
	}
}

// TestFIFOReusesStorage checks that a queue cycling at a steady depth
// stops allocating once its array has grown, and that popping it empty
// starts it over at the array's first slot.
func TestFIFOReusesStorage(t *testing.T) {
	var q FIFO[int]
	cycle := func() {
		for i := 0; i < 1000; i++ {
			q.Push(i)
			if q.Len() > 100 {
				q.Pop()
			}
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("%.0f allocations per 1000 steps at depth 100, want 0", allocs)
	}
	for q.Len() > 0 {
		q.Pop()
	}
	if q.head != 0 || len(q.buf) != 0 {
		t.Fatalf("empty queue at head %d, len %d; want both 0", q.head, len(q.buf))
	}
}

// TestSortedMatchesSortedSlice drives a Sorted queue and a sorted slice
// with the same inserts (some of them duplicates, at the front, middle
// and back) and front pops.
func TestSortedMatchesSortedSlice(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var q Sorted[int]
	var want []Entry[int]
	for step := 0; step < 20000; step++ {
		if r.Intn(3) == 0 && len(want) > 0 {
			if got := *q.Front(); got != want[0] {
				t.Fatalf("step %d: front %v, want %v", step, got, want[0])
			}
			q.Pop()
			want = want[1:]
		} else {
			seq := int64(r.Intn(500))
			i, found := slices.BinarySearchFunc(want, seq, func(e Entry[int], s int64) int {
				return int(e.Seq - s)
			})
			if q.Insert(seq, step) == found {
				t.Fatalf("step %d: Insert(%d) reported %v with the key queued = %v", step, seq, !found, found)
			}
			if !found {
				want = slices.Insert(want, i, Entry[int]{seq, step})
			}
		}
		if !slices.Equal(q.Items(), want) {
			t.Fatalf("step %d: queue %v, want %v", step, q.Items(), want)
		}
	}
}
