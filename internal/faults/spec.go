package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// ParseSpec builds a schedule from a compact scenario string — the
// format behind mpshell's -faults flag. Entries are ';'-separated:
//
//	blackout@START+DUR   one blackout window, e.g. blackout@5s+800ms
//	restart@START+DUR    kill the component at START, restore at +DUR
//	dialfail@START+DUR   refuse new dials/sessions in the window
//	corrupt=P            per-datagram corruption probability
//	truncate=P           per-datagram truncation probability
//	auto=N/HORIZON       N seeded random blackouts over HORIZON
//	                     (N at most maxAutoBlackouts)
//
// Explicit windows and auto entries combine; seed drives the auto
// placement (see autoSeed) and the injector's per-datagram draws. The
// same (spec, seed) pair always parses to a bit-identical schedule.
func ParseSpec(spec string, seed int64) (Schedule, error) {
	s := Schedule{Seed: seed}
	autos := 0
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		switch {
		case strings.HasPrefix(entry, "blackout@"):
			w, err := parseWindow(strings.TrimPrefix(entry, "blackout@"))
			if err != nil {
				return Schedule{}, fmt.Errorf("faults: %q: %w", entry, err)
			}
			s.Blackouts = append(s.Blackouts, w)
		case strings.HasPrefix(entry, "restart@"):
			w, err := parseWindow(strings.TrimPrefix(entry, "restart@"))
			if err != nil {
				return Schedule{}, fmt.Errorf("faults: %q: %w", entry, err)
			}
			s.Restarts = append(s.Restarts, w)
		case strings.HasPrefix(entry, "dialfail@"):
			w, err := parseWindow(strings.TrimPrefix(entry, "dialfail@"))
			if err != nil {
				return Schedule{}, fmt.Errorf("faults: %q: %w", entry, err)
			}
			s.DialFails = append(s.DialFails, w)
		case strings.HasPrefix(entry, "corrupt="):
			p, err := parseProb(strings.TrimPrefix(entry, "corrupt="))
			if err != nil {
				return Schedule{}, fmt.Errorf("faults: %q: %w", entry, err)
			}
			s.CorruptProb = p
		case strings.HasPrefix(entry, "truncate="):
			p, err := parseProb(strings.TrimPrefix(entry, "truncate="))
			if err != nil {
				return Schedule{}, fmt.Errorf("faults: %q: %w", entry, err)
			}
			s.TruncateProb = p
		case strings.HasPrefix(entry, "auto="):
			n, horizon, err := parseAuto(strings.TrimPrefix(entry, "auto="))
			if err != nil {
				return Schedule{}, fmt.Errorf("faults: %q: %w", entry, err)
			}
			s.Blackouts = append(s.Blackouts, autoBlackouts(autoSeed(seed, autos), n, horizon)...)
			autos++
			if horizon > s.Horizon {
				s.Horizon = horizon
			}
		default:
			return Schedule{}, fmt.Errorf("faults: unknown spec entry %q", entry)
		}
	}
	sortWindows(s.Blackouts)
	sortWindows(s.Restarts)
	sortWindows(s.DialFails)
	if s.Horizon == 0 {
		s.Horizon = lastEnd(&s)
	}
	return s, nil
}

// autoSeed is the placement seed of a spec's k-th auto= entry: the spec
// seed itself for the first, so a spec with one auto= entry places the
// windows it always has, and a golden-ratio step further for each later
// one, so repeated entries place different windows.
func autoSeed(seed int64, k int) int64 {
	return seed + int64(uint64(k)*0x9e3779b97f4a7c15)
}

// lastEnd returns the latest window end across all kinds.
func lastEnd(s *Schedule) time.Duration {
	var end time.Duration
	for _, ws := range [][]Window{s.Blackouts, s.Restarts, s.DialFails} {
		for _, w := range ws {
			if w.End() > end {
				end = w.End()
			}
		}
	}
	return end
}

// parseWindow parses "START+DUR" (both time.ParseDuration syntax).
func parseWindow(v string) (Window, error) {
	start, dur, ok := strings.Cut(v, "+")
	if !ok {
		return Window{}, fmt.Errorf("want START+DUR")
	}
	st, err := time.ParseDuration(start)
	if err != nil {
		return Window{}, err
	}
	d, err := time.ParseDuration(dur)
	if err != nil {
		return Window{}, err
	}
	if st < 0 || d <= 0 {
		return Window{}, fmt.Errorf("window must have start >= 0 and dur > 0")
	}
	if st > math.MaxInt64-d {
		return Window{}, fmt.Errorf("window end overflows a duration")
	}
	return Window{Start: st, Dur: d}, nil
}

func parseProb(v string) (float64, error) {
	p, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if !(p >= 0 && p <= 1) { // NaN fails both comparisons
		return 0, fmt.Errorf("probability %v outside [0, 1]", p)
	}
	return p, nil
}

// maxAutoBlackouts bounds an auto entry's count: autoBlackouts allocates
// every window up front, so an unbounded count is an unbounded
// allocation.
const maxAutoBlackouts = 10000

// parseAuto parses "N/HORIZON", e.g. "4/60s".
func parseAuto(v string) (int, time.Duration, error) {
	count, horizon, ok := strings.Cut(v, "/")
	if !ok {
		return 0, 0, fmt.Errorf("want N/HORIZON")
	}
	n, err := strconv.Atoi(count)
	if err != nil {
		return 0, 0, err
	}
	h, err := time.ParseDuration(horizon)
	if err != nil {
		return 0, 0, err
	}
	if n <= 0 || h <= 0 {
		return 0, 0, fmt.Errorf("want positive count and horizon")
	}
	if n > maxAutoBlackouts {
		return 0, 0, fmt.Errorf("count %d above %d", n, maxAutoBlackouts)
	}
	if h > math.MaxInt64/2 {
		// Auto windows start before the horizon; half the
		// duration range leaves room for their lengths.
		return 0, 0, fmt.Errorf("horizon %v too long", h)
	}
	return n, h, nil
}
