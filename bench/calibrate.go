package main

import (
	"runtime"
	"sort"
	"time"
)

// calNominal is the calibration kernel's median time on the host the
// baselines were measured on. Each CPU-bound timing (a set-up or a rep)
// is paired with a kernel run just before it and scaled by calNominal
// over that run's time, so timings read as if taken at the baseline
// host's usual speed.
//
// The measuring host's speed drifts: identical reanalyze reps took from
// 0.64 s to 1.5 s within ten minutes, with user CPU time moving the same
// way, and two sets of runs of the same code differed by a third. This
// kernel chases pointers, updates a map and sorts, as the workloads do,
// and tracks that drift (over blocks of six to twelve reps, the raw
// medians varied by 18-22% in interquartile range, the paired ratios by
// 4-6%), where a hashing loop barely sees it. It uses nothing from the
// repository, and allocates nothing while timed, so a change to the
// program, or to how much heap it keeps, cannot change the kernel's
// time.
const calNominal = 0.130

type calNode struct {
	next *calNode
	val  [6]int64
}

// calibrationKernel does fixed work and returns how long it took. It
// leaves no garbage behind.
func calibrationKernel() time.Duration {
	d := timedKernel()
	runtime.GC()
	return d
}

func timedKernel() time.Duration {
	nodes := make([]calNode, 300000)
	for i := range nodes {
		nodes[i].val[0] = int64(i)
		nodes[i].next = &nodes[(i*7919)%len(nodes)]
	}
	m := make(map[int64]int, 200000)
	src := make([]float64, 200000)
	for i := range src {
		src[i] = float64((i * 7919) % 100003)
	}
	xs := make([]float64, len(src))
	runtime.GC()

	start := time.Now()
	var sum int64
	for r := 0; r < 4; r++ {
		p := &nodes[0]
		for i := 0; i < 3000000; i++ {
			sum += p.val[0]
			p = p.next
		}
		clear(m)
		for i := 0; i < 200000; i++ {
			m[int64(i*31)%100003]++
		}
		copy(xs, src)
		sort.Float64s(xs)
		sum += int64(len(m))
	}
	d := time.Since(start)
	calSink = sum
	return d
}

// calSink keeps the kernel's result live.
var calSink int64
