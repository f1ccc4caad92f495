package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"satcell/internal/dataset"
	"satcell/internal/trace"
)

// Mode selects how the loaders treat malformed rows.
type Mode int

const (
	// Strict aborts the load on the first malformed row (the right
	// default for fsck and golden comparisons).
	Strict Mode = iota
	// Lenient skips malformed rows and counts them into the LoadReport
	// (the right default for analysis: one truncated line must not
	// discard a 1,000-test campaign).
	Lenient
)

// maxRowErrors caps the per-report error detail; skips beyond the cap
// are still counted, just not itemised.
const maxRowErrors = 20

// RowError locates one malformed row.
type RowError struct {
	File string
	Line int
	Err  string
}

// LoadReport is the structured outcome of a validating load: how much
// data arrived and how much was skipped, surfaced by the analyzer as
// KPIs the way test outcomes are.
type LoadReport struct {
	Files   int
	Rows    int
	Skipped int
	// Errors itemises the first maxRowErrors skipped rows.
	Errors []RowError
}

// note counts one skipped row.
func (r *LoadReport) note(file string, line int, err error) {
	r.Skipped++
	if len(r.Errors) < maxRowErrors {
		r.Errors = append(r.Errors, RowError{File: file, Line: line, Err: err.Error()})
	}
}

// String renders the report as a one-line KPI summary.
func (r *LoadReport) String() string {
	return fmt.Sprintf("%d files, %d rows loaded, %d rows skipped", r.Files, r.Rows, r.Skipped)
}

// Merge folds o into r, keeping the itemised-error cap. Concurrent
// scanners accumulate into per-shard reports and publish here only
// when a shard succeeds, so retried attempts never double-count.
func (r *LoadReport) Merge(o *LoadReport) {
	r.Files += o.Files
	r.Rows += o.Rows
	r.Skipped += o.Skipped
	for _, e := range o.Errors {
		if len(r.Errors) >= maxRowErrors {
			break
		}
		r.Errors = append(r.Errors, e)
	}
}

// TestRow is one parsed tests.csv record. String-typed columns stay
// strings so the loader accepts field campaigns with networks or areas
// the simulator does not model.
type TestRow struct {
	ID int
	// Drive is the drive index the test window was carved from, or -1
	// for artifacts predating the drive column (the scanner falls back
	// to a route/start heuristic for those).
	Drive                        int
	Network, Kind, Route, State  string
	StartS, DurationS            float64
	Area                         string
	MeanSpeedKmh, ThroughputMbps float64
	LossRate, RetransRate        float64
	Outcome                      string
}

// requiredTestColumns must be present in a tests.csv header; the
// remaining dataset.TestsCSVHeader columns are optional so older (or
// foreign) artifacts still load.
var requiredTestColumns = []string{
	"network", "kind", "area", "throughput_mbps", "loss_rate", "retrans_rate",
}

// LoadTestsFS opens and parses a tests.csv file through fsys (nil
// means the real filesystem).
func LoadTestsFS(fsys FS, path string, mode Mode) ([]TestRow, *LoadReport, error) {
	f, err := orOS(fsys).Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	rep := &LoadReport{}
	rows, err := ReadTests(f, path, mode, rep)
	return rows, rep, err
}

// ReadTests parses tests.csv records from r, accumulating into rep.
// Structural problems (empty input, missing required columns) fail in
// both modes; per-row problems fail in Strict mode and skip-and-count
// in Lenient mode.
func ReadTests(r io.Reader, name string, mode Mode, rep *LoadReport) ([]TestRow, error) {
	var rows []TestRow
	err := scanTestRows(r, name, mode, rep, func(row TestRow) error {
		rows = append(rows, row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// scanTestRows is the incremental core of ReadTests: each valid row is
// handed to fn in file order instead of being accumulated. An error
// from fn aborts the scan in both modes (it is the consumer speaking,
// not the data).
func scanTestRows(r io.Reader, name string, mode Mode, rep *LoadReport, fn func(TestRow) error) error {
	cr := trace.NewRecords(r)
	fields, _, err := cr.Read()
	if err == io.EOF {
		return fmt.Errorf("store: %s: empty tests file (no header)", name)
	}
	if err != nil {
		return fmt.Errorf("store: %s: read header: %w", name, err)
	}
	header := make([]string, len(fields))
	col := make(map[string]int, len(header))
	for i, h := range fields {
		header[i] = string(h)
		col[strings.TrimSpace(header[i])] = i
	}
	for _, need := range requiredTestColumns {
		if _, ok := col[need]; !ok {
			return fmt.Errorf("store: %s: missing column %q", name, need)
		}
	}
	rep.Files++

	var rec []string
	for {
		fields, line, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			if ferr := failOrSkip(mode, rep, name, line, err); ferr != nil {
				return ferr
			}
			continue
		}
		if len(fields) == 1 && len(bytes.TrimSpace(fields[0])) == 0 {
			continue // trailing blank / whitespace-only lines are not data
		}
		rec = rec[:0]
		for _, f := range fields {
			rec = append(rec, string(f))
		}
		row, err := parseTestRow(rec, header, col)
		if err != nil {
			if ferr := failOrSkip(mode, rep, name, line, err); ferr != nil {
				return ferr
			}
			continue
		}
		rep.Rows++
		if err := fn(row); err != nil {
			return err
		}
	}
	return nil
}

// failOrSkip applies the mode to one malformed row.
func failOrSkip(mode Mode, rep *LoadReport, name string, line int, err error) error {
	if mode == Strict {
		return fmt.Errorf("store: %s: line %d: %w", name, line, err)
	}
	rep.note(name, line, err)
	return nil
}

// parseTestRow validates one tests.csv record against the header.
func parseTestRow(rec, header []string, col map[string]int) (TestRow, error) {
	var row TestRow
	if len(rec) != len(header) {
		return row, fmt.Errorf("%d fields, want %d", len(rec), len(header))
	}
	get := func(name string) (string, bool) {
		i, ok := col[name]
		if !ok || i >= len(rec) {
			return "", false
		}
		return strings.TrimSpace(rec[i]), true
	}
	num := func(name string, dst *float64) error {
		s, ok := get(name)
		if !ok {
			return nil // optional column absent
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return fmt.Errorf("bad %s %q", name, s)
		}
		*dst = v
		return nil
	}
	row.Network, _ = get("network")
	row.Kind, _ = get("kind")
	row.Area, _ = get("area")
	row.Route, _ = get("route")
	row.State, _ = get("state")
	if row.Network == "" || row.Kind == "" || row.Area == "" {
		return row, errors.New("empty network/kind/area")
	}
	if s, ok := get("id"); ok {
		id, err := strconv.Atoi(s)
		if err != nil {
			return row, fmt.Errorf("bad id %q", s)
		}
		row.ID = id
	}
	row.Drive = -1
	if s, ok := get("drive"); ok {
		d, err := strconv.Atoi(s)
		if err != nil {
			return row, fmt.Errorf("bad drive %q", s)
		}
		row.Drive = d
	}
	for _, f := range []struct {
		name string
		dst  *float64
	}{
		{"start_s", &row.StartS}, {"duration_s", &row.DurationS},
		{"mean_speed_kmh", &row.MeanSpeedKmh}, {"throughput_mbps", &row.ThroughputMbps},
		{"loss_rate", &row.LossRate}, {"retrans_rate", &row.RetransRate},
	} {
		if err := num(f.name, f.dst); err != nil {
			return row, err
		}
	}
	if s, ok := get("outcome"); ok {
		if _, known := dataset.ParseOutcome(s); !known {
			return row, fmt.Errorf("bad outcome %q", s)
		}
		row.Outcome = s
	} else {
		// Pre-outcome artifacts carry only completed measurements.
		row.Outcome = dataset.OutcomeComplete.String()
	}
	return row, nil
}
