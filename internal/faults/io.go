package faults

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file extends the fault subsystem from the network path to the
// disk path. PR 2 made the live tools survive a scripted network
// (blackouts, corruption, dial refusals); the streaming analyzer reads
// campaigns from disk, where the equivalent failure modes are read
// errors, short reads, bit rot, ENOSPC, torn renames and latency
// stalls. An IOSchedule scripts those per file and per operation, with
// the same replayability contract as Schedule: a schedule is a pure
// value, and Digest gates bit-identical replay.
//
// Determinism under concurrency is the hard requirement here: the
// streaming pipeline scans shards from several workers, so decisions
// must not depend on global operation order. Every decision therefore
// derives from (seed, rule, file name, per-file operation index) — a
// file's fault script is fixed no matter which worker touches it or
// when, and retries of the same file continue its op count (which is
// what makes "fail the first N reads" transient faults meaningful).

// IOFaultKind classifies one injectable disk fault.
type IOFaultKind int

const (
	// IONone is the absence of a fault.
	IONone IOFaultKind = iota
	// IOReadErr fails a Read call with an injected I/O error.
	IOReadErr
	// IOShortRead truncates a Read mid-buffer; the file reads as EOF
	// from then on, emulating a file cut short under the reader.
	IOShortRead
	// IOBitFlip flips one bit of a Read's returned buffer (disk bit rot
	// surviving into page cache).
	IOBitFlip
	// IOWriteErr fails a Write call with ENOSPC.
	IOWriteErr
	// IOShortWrite writes only half the buffer, then fails with ENOSPC.
	IOShortWrite
	// IOTornRename truncates the source file to half its size before a
	// (successful) rename — the on-disk artifact of a crash landing
	// between a partial flush and the rename.
	IOTornRename
	// IOStall delays a Read by the rule's Stall duration (a seeking
	// disk, a hiccuping network filesystem).
	IOStall
	// IOWriteStall delays a Write by the rule's Stall duration — the
	// write-path sibling of IOStall (a congested disk, a throttled
	// network filesystem). The campaign stall-watchdog chaos suite uses
	// it to wedge a shard export deterministically.
	IOWriteStall
)

var ioKindNames = map[IOFaultKind]string{
	IONone: "none", IOReadErr: "read-err", IOShortRead: "short-read",
	IOBitFlip: "bitflip", IOWriteErr: "enospc", IOShortWrite: "short-write",
	IOTornRename: "torn-rename", IOStall: "stall", IOWriteStall: "write-stall",
}

// String names the kind the way ParseIOSpec spells it.
func (k IOFaultKind) String() string {
	if s, ok := ioKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("IOFaultKind(%d)", int(k))
}

// IOOp classifies the operation an injector is consulted about.
type IOOp int

const (
	// IOOpRead is one Read call on an open file.
	IOOpRead IOOp = iota
	// IOOpWrite is one Write call on an open file.
	IOOpWrite
	// IOOpRename is one rename of a finished temp file into place.
	IOOpRename
)

// op returns the operation class a fault kind fires on.
func (k IOFaultKind) op() IOOp {
	switch k {
	case IOWriteErr, IOShortWrite, IOWriteStall:
		return IOOpWrite
	case IOTornRename:
		return IOOpRename
	default:
		return IOOpRead
	}
}

// IORule scripts one fault: fire Kind on operations against files whose
// base name matches Path (path.Match glob; empty matches everything).
type IORule struct {
	Kind IOFaultKind
	// Path is a glob matched against the file's base name.
	Path string
	// Count fires the fault on each matching file's first Count
	// matching operations; 0 fires on every one (a permanent fault).
	// Count-limited faults are the transient half of the taxonomy: a
	// retry that re-reads the file gets past them.
	Count int
	// Prob, when > 0, fires the fault on each matching operation with
	// this probability instead of unconditionally. Draws are seeded
	// hashes of (seed, rule, file, op index), so they replay exactly
	// and are independent of worker interleaving.
	Prob float64
	// Stall is the injected delay for IOStall rules.
	Stall time.Duration
}

// IOSchedule is one deterministic disk-fault script: a seed plus an
// ordered rule list. The zero value is a healthy disk.
type IOSchedule struct {
	Seed  int64
	Rules []IORule
}

// Digest hashes every field of the schedule; two schedules share a
// digest iff they are bit-identical. Same replay gate as
// Schedule.Digest: a logged digest pins the exact fault scenario a run
// saw.
func (s *IOSchedule) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "ioseed=%d\n", s.Seed)
	for _, r := range s.Rules {
		fmt.Fprintf(h, "rule %s path=%q count=%d prob=%v stall=%v\n",
			r.Kind, r.Path, r.Count, r.Prob, r.Stall)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// String summarises the schedule for logs.
func (s *IOSchedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "iofaults(seed=%d", s.Seed)
	for _, r := range s.Rules {
		fmt.Fprintf(&b, ", %s:%s", r.Kind, r.Path)
		if r.Count > 0 {
			fmt.Fprintf(&b, "x%d", r.Count)
		}
		if r.Prob > 0 {
			fmt.Fprintf(&b, "@%.3g", r.Prob)
		}
		if r.Stall > 0 {
			fmt.Fprintf(&b, "+%v", r.Stall)
		}
	}
	b.WriteString(")")
	return b.String()
}

// ParseIOSpec builds an I/O schedule from a compact scenario string.
// Entries are ';'-separated, each "kind:glob[:mod[:mod...]]" where kind
// is one of read-err, short-read, bitflip, enospc, short-write,
// torn-rename, stall, write-stall; glob matches file base names ("*"
// for all); and
// mods are "xN" (fire on each file's first N matching ops; default
// every op), "@P" (fire with probability P per op) and "+DUR" (stall
// duration, stall rules only):
//
//	read-err:drive002_*:x1          first read of each drive002 shard fails
//	bitflip:*.csv:@0.001            one read in a thousand is bit-flipped
//	stall:*:+5ms                    every read stalls 5 ms
//	enospc:tests.csv:x1             first tests.csv write fails ENOSPC
//
// The same (spec, seed) pair always parses to a bit-identical schedule
// (see Digest).
func ParseIOSpec(spec string, seed int64) (IOSchedule, error) {
	s := IOSchedule{Seed: seed}
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) < 2 {
			return IOSchedule{}, fmt.Errorf("faults: %q: want kind:glob[:mods]", entry)
		}
		var kind IOFaultKind
		found := false
		for k, name := range ioKindNames {
			if k != IONone && name == parts[0] {
				kind, found = k, true
				break
			}
		}
		if !found {
			return IOSchedule{}, fmt.Errorf("faults: %q: unknown fault kind %q", entry, parts[0])
		}
		r := IORule{Kind: kind, Path: parts[1]}
		if _, err := path.Match(r.Path, "probe"); err != nil {
			return IOSchedule{}, fmt.Errorf("faults: %q: bad glob %q", entry, r.Path)
		}
		for _, mod := range parts[2:] {
			switch {
			case strings.HasPrefix(mod, "x"):
				n, err := strconv.Atoi(mod[1:])
				if err != nil || n <= 0 {
					return IOSchedule{}, fmt.Errorf("faults: %q: bad count %q", entry, mod)
				}
				r.Count = n
			case strings.HasPrefix(mod, "@"):
				p, err := parseProb(mod[1:])
				if err != nil {
					return IOSchedule{}, fmt.Errorf("faults: %q: %w", entry, err)
				}
				r.Prob = p
			case strings.HasPrefix(mod, "+"):
				d, err := time.ParseDuration(mod[1:])
				if err != nil || d <= 0 {
					return IOSchedule{}, fmt.Errorf("faults: %q: bad stall %q", entry, mod)
				}
				r.Stall = d
			default:
				return IOSchedule{}, fmt.Errorf("faults: %q: unknown modifier %q", entry, mod)
			}
		}
		if (r.Kind == IOStall || r.Kind == IOWriteStall) && r.Stall <= 0 {
			return IOSchedule{}, fmt.Errorf("faults: %q: stall rules need a +DUR modifier", entry)
		}
		s.Rules = append(s.Rules, r)
	}
	return s, nil
}

// IODecision is one injector verdict: the fault to apply to the
// operation (IONone for a healthy op) and, for stalls, how long.
type IODecision struct {
	Kind  IOFaultKind
	Stall time.Duration
	// Salt is a seeded per-decision value fault implementations use for
	// their own draws (which byte to flip, and which of its bits).
	Salt uint64
}

// IOInjector executes an IOSchedule: it tracks per-(rule, file)
// operation counts and answers, deterministically, whether a given
// operation faults. Safe for concurrent use; decisions depend only on
// (seed, rule, file, per-file op index), never on cross-file ordering.
type IOInjector struct {
	sched IOSchedule

	mu    sync.Mutex
	ops   map[ioKey]int // operations seen per (rule, file)
	stats IOStats
}

type ioKey struct {
	rule int
	file string
}

// IOStats counts the faults an injector actually fired, by kind.
type IOStats struct {
	ReadErrs, ShortReads, BitFlips int64
	WriteErrs, ShortWrites         int64
	TornRenames, Stalls            int64
}

// String renders the counts for logs.
func (s IOStats) String() string {
	return fmt.Sprintf(
		"read_errs=%d short_reads=%d bitflips=%d write_errs=%d short_writes=%d torn_renames=%d stalls=%d",
		s.ReadErrs, s.ShortReads, s.BitFlips, s.WriteErrs, s.ShortWrites, s.TornRenames, s.Stalls)
}

// NewIOInjector starts executing a schedule from a clean slate.
func NewIOInjector(s IOSchedule) *IOInjector {
	return &IOInjector{sched: s, ops: make(map[ioKey]int)}
}

// Stats snapshots the fired-fault counts.
func (j *IOInjector) Stats() IOStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// Decide consults the schedule for one operation on the file named
// base (a base name, no directory). The first matching rule that fires
// wins; rule order is the schedule's.
func (j *IOInjector) Decide(op IOOp, base string) IODecision {
	if j == nil || len(j.sched.Rules) == 0 {
		return IODecision{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for ri, r := range j.sched.Rules {
		if r.Kind.op() != op {
			continue
		}
		if r.Path != "" {
			if ok, _ := path.Match(r.Path, base); !ok {
				continue
			}
		}
		key := ioKey{ri, base}
		n := j.ops[key]
		j.ops[key] = n + 1
		if r.Count > 0 && n >= r.Count {
			continue // transient fault exhausted for this file
		}
		if r.Prob > 0 && !ioDraw(j.sched.Seed, ri, base, n, r.Prob) {
			continue
		}
		j.count(r.Kind)
		return IODecision{Kind: r.Kind, Stall: r.Stall, Salt: ioHash(j.sched.Seed, ri, base, n)}
	}
	return IODecision{}
}

func (j *IOInjector) count(k IOFaultKind) {
	switch k {
	case IOReadErr:
		j.stats.ReadErrs++
	case IOShortRead:
		j.stats.ShortReads++
	case IOBitFlip:
		j.stats.BitFlips++
	case IOWriteErr:
		j.stats.WriteErrs++
	case IOShortWrite:
		j.stats.ShortWrites++
	case IOTornRename:
		j.stats.TornRenames++
	case IOStall, IOWriteStall:
		j.stats.Stalls++
	}
}

// ioHash mixes (seed, rule, file, op index) into a uniform 64-bit value
// — the splitmix64 finalizer over an FNV-ish accumulation, plenty for
// fault placement and cheap enough per operation.
func ioHash(seed int64, rule int, file string, n int) uint64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(rule)*0xBF58476D1CE4E5B9 + uint64(n)
	for i := 0; i < len(file); i++ {
		h = (h ^ uint64(file[i])) * 0x100000001B3
	}
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// ioDraw is a deterministic Bernoulli draw with probability p.
func ioDraw(seed int64, rule int, file string, n int, p float64) bool {
	return float64(ioHash(seed, rule, file, n))/float64(^uint64(0)) < p
}
