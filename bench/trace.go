package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"satcell/internal/store"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented).
type span struct {
	ID       int              `json:"id"`
	Parent   int              `json:"parent"`
	Workload string           `json:"workload"`
	Rep      int              `json:"rep"`
	Name     string           `json:"name"`
	StartUS  int64            `json:"start_us"`
	EndUS    int64            `json:"end_us"`
	SelfUS   int64            `json:"self_us"`
	Counts   map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps a traced run's spans in memory; writeFile saves them when
// the run ends. It is used from one goroutine.
type tracer struct {
	workload string
	rep      int
	t0       time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// start opens a span under parent (0 for a root span) and returns its
// id.
func (t *tracer) start(parent int, name string) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Workload: t.workload, Rep: t.rep,
		Name: name, StartUS: time.Since(t.t0).Microseconds(),
	})
	return len(t.spans)
}

// end closes span id with its counts and returns its duration in
// seconds.
func (t *tracer) end(id int, counts map[string]int64) float64 {
	s := &t.spans[id-1]
	s.EndUS = time.Since(t.t0).Microseconds()
	s.Counts = counts
	return float64(s.EndUS-s.StartUS) / 1e6
}

// layer runs fn inside a span and returns the span's duration in
// seconds. counts, when non-nil, reads running totals; the span records
// how much each grew during fn.
func (t *tracer) layer(parent int, name string, counts func() map[string]int64, fn func() error) (float64, error) {
	var before map[string]int64
	if counts != nil {
		before = counts()
	}
	id := t.start(parent, name)
	err := fn()
	var delta map[string]int64
	if counts != nil {
		delta = counts()
		for k, v := range before {
			delta[k] -= v
		}
	}
	return t.end(id, delta), err
}

// selfTimes fills each span's self time: its duration minus the part of
// it its children cover.
func (t *tracer) selfTimes() {
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartUS, s.EndUS})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.SelfUS = s.EndUS - s.StartUS - covered(children[s.ID])
	}
}

// covered returns the total length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	started := false
	for _, x := range iv {
		switch {
		case !started || x[0] > end:
			total += x[1] - x[0]
			end = x[1]
			started = true
		case x[1] > end:
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

func (t *tracer) writeFile(path string) error {
	t.selfTimes()
	data, err := json.MarshalIndent(t.spans, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// countingFS wraps a store.FS and counts the bytes read and written, the
// Sync calls and the renames that pass through it.
type countingFS struct {
	store.FS
	read, written, syncs, renames atomic.Int64
}

func newCountingFS() *countingFS { return &countingFS{FS: store.OS()} }

func (c *countingFS) Open(name string) (store.File, error) {
	return c.wrap(c.FS.Open(name))
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	return c.wrap(c.FS.OpenFile(name, flag, perm))
}

func (c *countingFS) CreateTemp(dir, pattern string) (store.File, error) {
	return c.wrap(c.FS.CreateTemp(dir, pattern))
}

func (c *countingFS) Rename(oldpath, newpath string) error {
	c.renames.Add(1)
	return c.FS.Rename(oldpath, newpath)
}

func (c *countingFS) wrap(f store.File, err error) (store.File, error) {
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

// totals returns the counts so far.
func (c *countingFS) totals() map[string]int64 {
	return map[string]int64{
		"bytes_read": c.read.Load(), "bytes_written": c.written.Load(),
		"syncs": c.syncs.Load(), "renames": c.renames.Load(),
	}
}

type countingFile struct {
	store.File
	fs *countingFS
}

func (f *countingFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.fs.read.Add(int64(n))
	return n, err
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.written.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}
