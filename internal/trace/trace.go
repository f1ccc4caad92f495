// Package trace persists and converts channel traces: a CSV format for
// the driving dataset, the Mahimahi packet-delivery-opportunity format
// used by MpShell-style emulators, and the timestamp alignment the
// paper's §6 uses so that traces of different networks reflect the same
// location and time.
package trace

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"satcell/internal/channel"
	"satcell/internal/geo"
)

// csvHeader is the column layout of the trace CSV format.
var csvHeader = []string{
	"at_ms", "down_mbps", "up_mbps", "rtt_ms",
	"loss_down", "loss_up", "signal_db", "serving", "outage",
}

// csvEnvHeader is the optional trailing column group of the extended
// trace layout written by WriteRecordsCSV: the drive environment (area
// type, speed) and the burst-loss marker. The readers accept both the
// base and the extended layout, so pre-extension artifacts keep
// loading.
var csvEnvHeader = []string{"area", "speed_kmh", "burst"}

// WriteCSV writes tr in the satcell CSV trace format.
func WriteCSV(w io.Writer, tr *channel.Trace) error {
	cw := csv.NewWriter(w)
	header := append([]string{"network"}, csvHeader...)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for _, s := range tr.Samples {
		rec := []string{
			tr.Network.String(),
			strconv.FormatInt(s.At.Milliseconds(), 10),
			strconv.FormatFloat(s.DownMbps, 'f', 3, 64),
			strconv.FormatFloat(s.UpMbps, 'f', 3, 64),
			strconv.FormatFloat(float64(s.RTT.Microseconds())/1000, 'f', 3, 64),
			strconv.FormatFloat(s.LossDown, 'f', 6, 64),
			strconv.FormatFloat(s.LossUp, 'f', 6, 64),
			strconv.FormatFloat(s.SignalDB, 'f', 2, 64),
			s.Serving,
			strconv.FormatBool(s.Outage),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: write record: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteRecordsCSV writes drive records in the extended trace layout:
// the base columns plus area, speed_kmh and burst. Persisting the
// environment and the burst marker makes the shard self-contained — the
// streaming analyzer rebuilds area/speed figures and replays the fluid
// TCP model from the file alone, without the generating process.
func WriteRecordsCSV(w io.Writer, network channel.NetworkID, recs []channel.Record) error {
	cw := csv.NewWriter(w)
	header := append([]string{"network"}, csvHeader...)
	header = append(header, csvEnvHeader...)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for _, r := range recs {
		s := r.Sample
		rec := []string{
			network.String(),
			strconv.FormatInt(s.At.Milliseconds(), 10),
			strconv.FormatFloat(s.DownMbps, 'f', 3, 64),
			strconv.FormatFloat(s.UpMbps, 'f', 3, 64),
			strconv.FormatFloat(float64(s.RTT.Microseconds())/1000, 'f', 3, 64),
			strconv.FormatFloat(s.LossDown, 'f', 6, 64),
			strconv.FormatFloat(s.LossUp, 'f', 6, 64),
			strconv.FormatFloat(s.SignalDB, 'f', 2, 64),
			s.Serving,
			strconv.FormatBool(s.Outage),
			r.Env.Area.String(),
			strconv.FormatFloat(r.Env.SpeedKmh, 'f', 2, 64),
			strconv.FormatBool(s.Burst),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: write record: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a trace written by WriteCSV. It is strict: the first
// malformed record aborts the read with a "trace:"-prefixed error naming
// the offending line. Empty lines, whitespace-only lines (including bare
// CR from CRLF artifacts) and a UTF-8 BOM are tolerated in both modes.
func ReadCSV(r io.Reader) (*channel.Trace, error) {
	return readCSV(r, false, nil)
}

// ReadCSVLenient parses like ReadCSV but skips malformed records instead
// of failing: each skipped row is reported to onSkip (if non-nil) with
// its line number and a "trace:"-prefixed error. Structural problems —
// empty input, a wrong header — still fail, since nothing after them can
// be trusted.
func ReadCSVLenient(r io.Reader, onSkip func(line int, err error)) (*channel.Trace, error) {
	return readCSV(r, true, onSkip)
}

// maxConsecutiveBadRows bounds lenient-mode error tolerance so a file
// that is not a trace at all fails instead of silently skipping forever.
const maxConsecutiveBadRows = 10000

func readCSV(r io.Reader, lenient bool, onSkip func(int, error)) (*channel.Trace, error) {
	tr := &channel.Trace{}
	first := true
	err := scanCSV(r, lenient, onSkip, func(n channel.NetworkID, rec channel.Record) error {
		if !first && n != tr.Network {
			return fmt.Errorf("network changed mid-trace: %v then %v", tr.Network, n)
		}
		if first {
			tr.Network = n
			first = false
		}
		tr.Samples = append(tr.Samples, rec.Sample)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// ScanRecordsCSV streams a trace CSV (base or extended layout) row by
// row without materializing the whole trace: fn receives each record's
// network plus the reconstructed channel.Record (the environment fields
// are zero for base-layout files). An error returned by fn counts as a
// malformed row — fatal in strict mode, skip-and-report in lenient
// mode. This is the incremental reader under store.ScanTraceFS and the
// streaming analyzer's shard scan.
func ScanRecordsCSV(r io.Reader, lenient bool, onSkip func(line int, err error), fn func(channel.NetworkID, channel.Record) error) error {
	return scanCSV(r, lenient, onSkip, fn)
}

func scanCSV(r io.Reader, lenient bool, onSkip func(int, error), fn func(channel.NetworkID, channel.Record) error) error {
	cr := csv.NewReader(stripBOM(r))
	cr.FieldsPerRecord = -1 // field counts are validated per record below
	cr.LazyQuotes = true
	cr.ReuseRecord = true // nothing keeps rec past its row; fields are copied or parsed
	header, err := cr.Read()
	if err == io.EOF {
		return errors.New("trace: empty trace file (no header)")
	}
	if err != nil {
		return fmt.Errorf("trace: read header: %w", err)
	}
	if strings.TrimSpace(header[0]) != "network" {
		return fmt.Errorf("trace: unexpected header %q", header[0])
	}
	wantFields := len(csvHeader) + 1
	switch len(header) {
	case wantFields: // base layout
	case wantFields + len(csvEnvHeader): // extended layout with env columns
		wantFields += len(csvEnvHeader)
	default:
		return fmt.Errorf("trace: unexpected header: %d columns (want %d or %d)",
			len(header), wantFields, wantFields+len(csvEnvHeader))
	}
	var p rowParser
	bad := 0
	skip := func(line int, rowErr error) error {
		if !lenient {
			return rowErr
		}
		if bad++; bad > maxConsecutiveBadRows {
			return fmt.Errorf("trace: giving up after %d consecutive malformed rows: %w",
				maxConsecutiveBadRows, rowErr)
		}
		if onSkip != nil {
			onSkip(line, rowErr)
		}
		return nil
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			line := 0
			var pe *csv.ParseError
			if errors.As(err, &pe) {
				line = pe.Line
			}
			if serr := skip(line, fmt.Errorf("trace: line %d: %w", line, err)); serr != nil {
				return serr
			}
			continue
		}
		if blankRecord(rec) {
			continue // trailing blank / whitespace-only lines are not data
		}
		line, _ := cr.FieldPos(0)
		row, n, err := p.parseRecord(rec, wantFields)
		if err == nil {
			err = fn(n, row)
		}
		if err != nil {
			if serr := skip(line, fmt.Errorf("trace: line %d: %w", line, err)); serr != nil {
				return serr
			}
			continue
		}
		bad = 0
	}
	return nil
}

// stripBOM removes a leading UTF-8 byte-order mark, which spreadsheet
// tools like to prepend when re-saving CSV artifacts.
func stripBOM(r io.Reader) io.Reader {
	br := bufio.NewReader(r)
	if b, err := br.Peek(3); err == nil && b[0] == 0xEF && b[1] == 0xBB && b[2] == 0xBF {
		br.Discard(3)
	}
	return br
}

// blankRecord reports whether rec is an empty or whitespace-only line
// (encoding/csv only skips fully empty lines on its own).
func blankRecord(rec []string) bool {
	return len(rec) == 1 && strings.TrimSpace(rec[0]) == ""
}

// rowParser parses the data records of one scan. It memoises the
// network column, which is constant within a shard, and interns serving
// ids: each field is a substring of its whole CSV line, so a retained
// Sample would otherwise pin that line for as long as it lives.
type rowParser struct {
	netRaw  string
	net     channel.NetworkID
	serving map[string]string
}

// network resolves the network column, reusing the last id while the
// raw column repeats.
func (p *rowParser) network(raw string) (channel.NetworkID, error) {
	if p.net != channel.NetworkInvalid && raw == p.netRaw {
		return p.net, nil
	}
	n, err := channel.ParseNetwork(strings.TrimSpace(raw))
	if err != nil {
		return channel.NetworkInvalid, err
	}
	p.netRaw, p.net = strings.Clone(raw), channel.NetworkID(strings.Clone(string(n)))
	return p.net, nil
}

// intern returns a copy of s that is shared by every equal serving id
// of the scan.
func (p *rowParser) intern(s string) string {
	if c, ok := p.serving[s]; ok {
		return c
	}
	if p.serving == nil {
		p.serving = make(map[string]string)
	}
	c := strings.Clone(s)
	p.serving[c] = c
	return c
}

// parseRecord validates and parses one data record (network + sample,
// plus the environment columns in the extended layout). The network
// column resolves against the default catalog, so traces of custom
// registered networks load like the built-in five.
func (p *rowParser) parseRecord(rec []string, wantFields int) (channel.Record, channel.NetworkID, error) {
	if len(rec) != wantFields {
		return channel.Record{}, channel.NetworkInvalid, fmt.Errorf("%d fields, want %d", len(rec), wantFields)
	}
	n, err := p.network(rec[0])
	if err != nil {
		return channel.Record{}, channel.NetworkInvalid, err
	}
	s, err := parseSample(rec[1:])
	if err != nil {
		return channel.Record{}, n, err
	}
	s.Serving = p.intern(s.Serving)
	out := channel.Record{Sample: s}
	out.Env.At = s.At
	if wantFields > len(csvHeader)+1 {
		ext := rec[len(csvHeader)+1:]
		area, ok := geo.ParseArea(strings.TrimSpace(ext[0]))
		if !ok {
			return channel.Record{}, n, fmt.Errorf("bad area %q", ext[0])
		}
		out.Env.Area = area
		speed, err := strconv.ParseFloat(strings.TrimSpace(ext[1]), 64)
		if err != nil {
			return channel.Record{}, n, fmt.Errorf("bad speed_kmh %q: %w", ext[1], err)
		}
		out.Env.SpeedKmh = speed
		burst, err := strconv.ParseBool(strings.TrimSpace(ext[2]))
		if err != nil {
			return channel.Record{}, n, fmt.Errorf("bad burst %q: %w", ext[2], err)
		}
		out.Sample.Burst = burst
	}
	return out, n, nil
}

func parseSample(rec []string) (channel.Sample, error) {
	var s channel.Sample
	atMs, err := strconv.ParseInt(strings.TrimSpace(rec[0]), 10, 64)
	if err != nil {
		return s, fmt.Errorf("bad at_ms %q: %w", rec[0], err)
	}
	s.At = time.Duration(atMs) * time.Millisecond
	fields := []*float64{&s.DownMbps, &s.UpMbps, nil, &s.LossDown, &s.LossUp, &s.SignalDB}
	for i, dst := range fields {
		if dst == nil {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rec[1+i]), 64)
		if err != nil {
			return s, fmt.Errorf("bad field %d %q: %w", i, rec[1+i], err)
		}
		*dst = v
	}
	rttMs, err := strconv.ParseFloat(strings.TrimSpace(rec[3]), 64)
	if err != nil {
		return s, fmt.Errorf("bad rtt %q: %w", rec[3], err)
	}
	s.RTT = time.Duration(rttMs * float64(time.Millisecond))
	s.Serving = rec[7]
	s.Outage, err = strconv.ParseBool(strings.TrimSpace(rec[8]))
	if err != nil {
		return s, fmt.Errorf("bad outage %q: %w", rec[8], err)
	}
	return s, nil
}

// mahimahiMTU is the bytes-per-opportunity constant of the Mahimahi
// trace format: each line grants one 1500-byte delivery opportunity.
const mahimahiMTU = 1500

// WriteMahimahi converts the downlink capacity of tr into a Mahimahi
// packet-delivery trace: one line per 1500-byte delivery opportunity,
// each holding the opportunity's timestamp in integer milliseconds.
// This is the conversion the paper performs to replay UDP throughput
// traces on MpShell.
func WriteMahimahi(w io.Writer, tr *channel.Trace, uplink bool) error {
	bw := bufio.NewWriter(w)
	var carry float64 // fractional opportunities carried between samples
	for i, s := range tr.Samples {
		// Sample i covers [s.At, next.At).
		end := s.At + time.Second
		if i+1 < len(tr.Samples) {
			end = tr.Samples[i+1].At
		}
		durMs := float64(end-s.At) / float64(time.Millisecond)
		if durMs <= 0 {
			continue
		}
		rate := s.DownMbps
		if uplink {
			rate = s.UpMbps
		}
		// Opportunities in this window.
		ops := rate * 1e6 / 8 / mahimahiMTU * durMs / 1000
		total := ops + carry
		n := int(total)
		carry = total - float64(n)
		startMs := float64(s.At) / float64(time.Millisecond)
		for k := 0; k < n; k++ {
			at := startMs + durMs*float64(k)/float64(n)
			if _, err := fmt.Fprintf(bw, "%d\n", int64(at)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadMahimahi parses a Mahimahi delivery-opportunity trace back into a
// per-second capacity trace (Mbps), attributing each opportunity to its
// second. It is strict: the first malformed line aborts with a
// "trace:"-prefixed error naming the line. Blank and whitespace-only
// lines (including CRLF artifacts) are tolerated; a file with no
// opportunities at all is an error.
func ReadMahimahi(r io.Reader, network channel.NetworkID) (*channel.Trace, error) {
	return readMahimahi(r, network, false, nil)
}

// ReadMahimahiLenient parses like ReadMahimahi but skips malformed lines
// instead of failing, reporting each skip to onSkip (if non-nil).
func ReadMahimahiLenient(r io.Reader, network channel.NetworkID, onSkip func(line int, err error)) (*channel.Trace, error) {
	return readMahimahi(r, network, true, onSkip)
}

func readMahimahi(r io.Reader, network channel.NetworkID, lenient bool, onSkip func(int, error)) (*channel.Trace, error) {
	sc := bufio.NewScanner(stripBOM(r))
	counts := make(map[int64]int64)
	var maxSec, total int64
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		ms, err := strconv.ParseInt(line, 10, 64)
		if err != nil || ms < 0 {
			rowErr := fmt.Errorf("trace: mahimahi line %d: bad opportunity %q", lineNo, line)
			if !lenient {
				return nil, rowErr
			}
			if onSkip != nil {
				onSkip(lineNo, rowErr)
			}
			continue
		}
		sec := ms / 1000
		counts[sec]++
		total++
		if sec > maxSec {
			maxSec = sec
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read mahimahi: %w", err)
	}
	if total == 0 {
		return nil, errors.New("trace: empty mahimahi trace (no delivery opportunities)")
	}
	tr := &channel.Trace{Network: network}
	for sec := int64(0); sec <= maxSec; sec++ {
		mbps := float64(counts[sec]) * mahimahiMTU * 8 / 1e6
		tr.Samples = append(tr.Samples, channel.Sample{
			At:       time.Duration(sec) * time.Second,
			DownMbps: mbps,
		})
	}
	return tr, nil
}

// Align trims a set of traces to their common time span (all traces are
// assumed to start at the same instant, as the paper aligns them by
// wall-clock timestamp) and returns copies covering [0, min duration).
func Align(traces ...*channel.Trace) []*channel.Trace {
	if len(traces) == 0 {
		return nil
	}
	minDur := traces[0].Duration()
	for _, tr := range traces[1:] {
		if d := tr.Duration(); d < minDur {
			minDur = d
		}
	}
	out := make([]*channel.Trace, len(traces))
	for i, tr := range traces {
		out[i] = tr.Slice(0, minDur+1)
	}
	return out
}

// Replay converts a measured channel trace into its MpShell replay form
// (§6): capacity and RTT are preserved, random wire loss and burst marks
// are stripped, and outage seconds keep the last known RTT (50 ms before
// the first measurement). Loss then emerges from droptail queues only,
// exactly as in Mahimahi.
func Replay(tr *channel.Trace) *channel.Trace {
	out := &channel.Trace{Network: tr.Network}
	lastRTT := 50 * time.Millisecond
	for _, s := range tr.Samples {
		s.LossDown, s.LossUp, s.Burst = 0, 0, false
		if s.RTT == 0 {
			s.RTT = lastRTT
		}
		lastRTT = s.RTT
		out.Samples = append(out.Samples, s)
	}
	return out
}
