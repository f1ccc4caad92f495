// Package trace persists and converts channel traces: a CSV format for
// the driving dataset, the Mahimahi packet-delivery-opportunity format
// used by MpShell-style emulators, and the timestamp alignment the
// paper's §6 uses so that traces of different networks reflect the same
// location and time.
package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

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
	rw, err := newRowWriter(w, false)
	if err != nil {
		return err
	}
	network := tr.Network.String()
	for i := range tr.Samples {
		if err := rw.row(network, &tr.Samples[i], nil); err != nil {
			return err
		}
	}
	return rw.bw.Flush()
}

// WriteRecordsCSV writes drive records in the extended trace layout:
// the base columns plus area, speed_kmh and burst. Persisting the
// environment and the burst marker makes the shard self-contained — the
// streaming analyzer rebuilds area/speed figures and replays the fluid
// TCP model from the file alone, without the generating process.
func WriteRecordsCSV(w io.Writer, network channel.NetworkID, recs []channel.Record) error {
	rw, err := newRowWriter(w, true)
	if err != nil {
		return err
	}
	name := network.String()
	for i := range recs {
		if err := rw.row(name, &recs[i].Sample, &recs[i].Env); err != nil {
			return err
		}
	}
	return rw.bw.Flush()
}

// rowWriter writes trace CSV rows byte-identical to encoding/csv's
// output: each row is appended to a reused buffer with appendRow and
// handed to a 4 KiB bufio.Writer, so w sees the same writes a csv.Writer
// made, and a per-write fault schedule fires on the same operations.
type rowWriter struct {
	bw   *bufio.Writer
	line []byte
}

// newRowWriter writes the header of the base layout, or of the extended
// one if ext, and returns the writer for the rows.
func newRowWriter(w io.Writer, ext bool) (*rowWriter, error) {
	rw := &rowWriter{bw: bufio.NewWriterSize(w, 4096)}
	header := append([]string{"network"}, csvHeader...)
	if ext {
		header = append(header, csvEnvHeader...)
	}
	if _, err := rw.bw.WriteString(strings.Join(header, ",") + "\n"); err != nil {
		return nil, fmt.Errorf("trace: write header: %w", err)
	}
	return rw, nil
}

// row writes one sample; env carries the extended columns, nil for the
// base layout.
func (rw *rowWriter) row(network string, s *channel.Sample, env *channel.Env) error {
	rw.line = appendRow(rw.line[:0], network, s, env)
	if _, err := rw.bw.Write(rw.line); err != nil {
		return fmt.Errorf("trace: write record: %w", err)
	}
	return nil
}

// appendRow appends one CSV row to dst.
func appendRow(dst []byte, network string, s *channel.Sample, env *channel.Env) []byte {
	dst = appendField(dst, network)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, s.At.Milliseconds(), 10)
	dst = append(dst, ',')
	dst = appendFixed(dst, s.DownMbps, 3)
	dst = append(dst, ',')
	dst = appendFixed(dst, s.UpMbps, 3)
	dst = append(dst, ',')
	dst = appendFixed(dst, float64(s.RTT.Microseconds())/1000, 3)
	dst = append(dst, ',')
	dst = appendFixed(dst, s.LossDown, 6)
	dst = append(dst, ',')
	dst = appendFixed(dst, s.LossUp, 6)
	dst = append(dst, ',')
	dst = appendFixed(dst, s.SignalDB, 2)
	dst = append(dst, ',')
	dst = appendField(dst, s.Serving)
	dst = append(dst, ',')
	dst = strconv.AppendBool(dst, s.Outage)
	if env != nil {
		dst = append(dst, ',')
		dst = appendField(dst, env.Area.String())
		dst = append(dst, ',')
		dst = appendFixed(dst, env.SpeedKmh, 2)
		dst = append(dst, ',')
		dst = strconv.AppendBool(dst, s.Burst)
	}
	return append(dst, '\n')
}

// appendField appends a free-form column as csv.Writer writes it with
// the default comma and UseCRLF unset: as it is, or, if fieldNeedsQuotes,
// inside quotes with each inner quote doubled (CR and LF kept as they are).
func appendField(dst []byte, f string) []byte {
	if !fieldNeedsQuotes(f) {
		return append(dst, f...)
	}
	dst = append(dst, '"')
	for i := 0; i < len(f); i++ {
		if f[i] == '"' {
			dst = append(dst, '"')
		}
		dst = append(dst, f[i])
	}
	return append(dst, '"')
}

// fieldNeedsQuotes is csv.Writer's quoting test for the default comma:
// `\.`, a comma, a quote, CR or LF, or a leading Unicode space.
func fieldNeedsQuotes(field string) bool {
	if field == "" {
		return false
	}
	if field == `\.` {
		return true
	}
	for i := 0; i < len(field); i++ {
		switch field[i] {
		case ',', '"', '\r', '\n':
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(field)
	return unicode.IsSpace(r)
}

// pow10 holds 10^p for every precision appendFixed formats itself.
var pow10 = [...]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// appendFixed appends the same bytes as strconv.AppendFloat(dst, x, 'f',
// prec, 64). strconv formats a fixed precision through its
// multiprecision decimal type; here x = mant·2^-s, and x·10^prec is the
// 128-bit product mant·10^prec shifted right by s, rounded half to even
// as strconv rounds the exact value. The sign bit is always kept, so a
// negative value that rounds to zero prints "-0.000". NaN, ±Inf, values
// of at least 2^52 (s ≤ 0) and quotients of 2^63 or more go to strconv.
func appendFixed(dst []byte, x float64, prec int) []byte {
	b := math.Float64bits(x)
	exp := int(b>>52) & 0x7ff
	mant := b & (1<<52 - 1)
	if exp == 0x7ff || prec < 0 || prec >= len(pow10) {
		return strconv.AppendFloat(dst, x, 'f', prec, 64)
	}
	if exp == 0 {
		exp = 1 // subnormal: no implicit bit
	} else {
		mant |= 1 << 52
	}
	s := 1075 - exp
	if s <= 0 {
		return strconv.AppendFloat(dst, x, 'f', prec, 64)
	}
	// P = hi:lo = mant·10^prec. q2 = P >> (s-1) keeps the half bit below
	// the quotient; sticky says whether any bit under the half bit is set.
	hi, lo := bits.Mul64(mant, pow10[prec])
	k := uint(s - 1)
	var q2 uint64
	var sticky bool
	switch {
	case k >= 128: // P < 2^117 is under one half: q2 and q are 0
	case k >= 64:
		q2 = hi >> (k - 64)
		sticky = lo != 0 || hi<<(128-k) != 0
	default:
		if hi>>k != 0 {
			return strconv.AppendFloat(dst, x, 'f', prec, 64)
		}
		q2 = hi<<(64-k) | lo>>k
		sticky = lo<<(64-k) != 0
	}
	q := q2 >> 1
	if q2&1 == 1 && (sticky || q&1 == 1) {
		q++
	}
	if b>>63 != 0 {
		dst = append(dst, '-')
	}
	if prec == 0 {
		return strconv.AppendUint(dst, q, 10)
	}
	dst = strconv.AppendUint(dst, q/pow10[prec], 10)
	dst = append(dst, '.')
	dst = append(dst, "0000000000000000000"[:prec]...)
	for i, frac := len(dst)-1, q%pow10[prec]; frac > 0; i, frac = i-1, frac/10 {
		dst[i] = byte('0' + frac%10)
	}
	return dst
}

// ReadCSV parses a trace written by WriteCSV. It is strict: the first
// malformed record aborts the read with a "trace:"-prefixed error naming
// the offending line. A non-finite number, or an at_ms or rtt_ms beyond
// what a time.Duration holds, makes a record malformed. Empty lines,
// whitespace-only lines (including bare CR from CRLF artifacts) and a
// UTF-8 BOM are tolerated.
func ReadCSV(r io.Reader) (*channel.Trace, error) {
	tr := &channel.Trace{}
	first := true
	err := ScanRecordsCSV(r, false, nil, func(n channel.NetworkID, rec channel.Record) error {
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

// maxConsecutiveBadRows bounds lenient-mode error tolerance so a file
// that is not a trace at all fails instead of silently skipping forever.
const maxConsecutiveBadRows = 10000

// ScanRecordsCSV streams a trace CSV (base or extended layout) row by
// row without materializing the whole trace: fn receives each record's
// network plus the reconstructed channel.Record (the environment fields
// are zero for base-layout files). An error returned by fn counts as a
// malformed row — fatal in strict mode, skip-and-report in lenient
// mode. This is the incremental reader under store.ScanTraceFS and the
// streaming analyzer's shard scan.
func ScanRecordsCSV(r io.Reader, lenient bool, onSkip func(line int, err error), fn func(channel.NetworkID, channel.Record) error) error {
	cr := NewRecords(r)
	wantFields, err := readHeader(cr)
	if err != nil {
		return err
	}
	var p rowParser
	ext := wantFields > len(csvHeader)+1
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
	var row channel.Record
	for {
		l, err := cr.nextLine()
		if err == io.EOF {
			break
		}
		// A line the one-pass decoder cannot finish takes the general
		// path: the Records split, then parseRecord.
		line, n, ok := cr.numLine, channel.NetworkInvalid, false
		if err == nil {
			n, ok = p.decode(l, ext, &row)
		}
		if !ok {
			var rec [][]byte
			rec, line, err = cr.split(l, err)
			if err == nil && blankRecord(rec) {
				continue // trailing blank / whitespace-only lines are not data
			}
			if err == nil {
				row, n, err = p.parseRecord(rec, wantFields)
			}
		}
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

// readHeader reads and checks a trace's header and returns the field
// count of its layout, base or extended.
func readHeader(cr *Records) (int, error) {
	header, _, err := cr.Read()
	if err == io.EOF {
		return 0, errors.New("trace: empty trace file (no header)")
	}
	if err != nil {
		return 0, fmt.Errorf("trace: read header: %w", err)
	}
	if string(bytes.TrimSpace(header[0])) != "network" {
		return 0, fmt.Errorf("trace: unexpected header %q", header[0])
	}
	wantFields := len(csvHeader) + 1
	switch len(header) {
	case wantFields: // base layout
	case wantFields + len(csvEnvHeader): // extended layout with env columns
		wantFields += len(csvEnvHeader)
	default:
		return 0, fmt.Errorf("trace: unexpected header: %d columns (want %d or %d)",
			len(header), wantFields, wantFields+len(csvEnvHeader))
	}
	return wantFields, nil
}

// readBufferSize is the read buffer of the CSV readers. A trace shard
// is a few hundred kilobytes, and reading it 16 KiB at a time takes a
// quarter of the read calls of bufio's default 4 KiB.
const readBufferSize = 16 << 10

// stripBOM removes a leading UTF-8 byte-order mark, which spreadsheet
// tools like to prepend when re-saving CSV artifacts.
func stripBOM(r io.Reader) *bufio.Reader {
	br := bufio.NewReaderSize(r, readBufferSize)
	if b, err := br.Peek(3); err == nil && b[0] == 0xEF && b[1] == 0xBB && b[2] == 0xBF {
		br.Discard(3)
	}
	return br
}

// blankRecord reports whether rec is an empty or whitespace-only line
// (Records, like encoding/csv, only skips fully empty lines on its own).
func blankRecord(rec [][]byte) bool {
	return len(rec) == 1 && len(bytes.TrimSpace(rec[0])) == 0
}

// rowParser parses the data records of one scan. Its fields are views
// into the Records reader's reused buffers, so whatever a row keeps is
// copied: it memoises the network column, which is constant within a
// shard, and interns serving ids, so a new id costs one copy and a
// repeated one none.
type rowParser struct {
	netRaw  string
	net     channel.NetworkID
	serving map[string]string
	last    string // the serving id interned last
}

// network resolves the network column, reusing the last id while the
// raw column repeats.
func (p *rowParser) network(raw []byte) (channel.NetworkID, error) {
	if p.net != channel.NetworkInvalid && string(raw) == p.netRaw {
		return p.net, nil
	}
	s := string(raw)
	n, err := channel.ParseNetwork(strings.TrimSpace(s))
	if err != nil {
		return channel.NetworkInvalid, err
	}
	p.netRaw, p.net = s, n
	return p.net, nil
}

// intern returns the serving id b as a string shared by every equal id
// of the scan. A repeat of the last id, the common case within a
// shard, skips the map.
func (p *rowParser) intern(b []byte) string {
	if string(b) == p.last {
		return p.last
	}
	s, ok := p.serving[string(b)]
	if !ok {
		if p.serving == nil {
			p.serving = make(map[string]string)
		}
		s = string(b)
		p.serving[s] = s
	}
	p.last = s
	return s
}

// parseRecord validates and parses one data record (network + sample,
// plus the environment columns in the extended layout). The network
// column resolves against the default catalog, so traces of custom
// registered networks load like the built-in five.
func (p *rowParser) parseRecord(rec [][]byte, wantFields int) (channel.Record, channel.NetworkID, error) {
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
	s.Serving = p.intern(rec[8])
	out := channel.Record{Sample: s}
	out.Env.At = s.At
	if wantFields > len(csvHeader)+1 {
		ext := rec[len(csvHeader)+1:]
		area, ok := geo.ParseArea(string(bytes.TrimSpace(ext[0])))
		if !ok {
			return channel.Record{}, n, fmt.Errorf("bad area %q", ext[0])
		}
		out.Env.Area = area
		speed, err := parseFinite(ext[1])
		if err != nil {
			return channel.Record{}, n, fmt.Errorf("bad speed_kmh %q: %w", ext[1], err)
		}
		out.Env.SpeedKmh = speed
		burst, err := parseBool(ext[2])
		if err != nil {
			return channel.Record{}, n, fmt.Errorf("bad burst %q: %w", ext[2], err)
		}
		out.Sample.Burst = burst
	}
	return out, n, nil
}

// decode decodes one data line of a trace shard, as nextLine returns
// it, into out in a single left-to-right pass: it resolves the network
// through network, then parses each column up to its comma straight
// into out. It accepts only a line it can finish with the value
// parseRecord gives: no quote, exactly the layout's columns (ext for
// the extended one), an at_ms of bare digits within maxMs, numbers
// parseFixed takes and an RTT a time.Duration holds, booleans that read
// "true" or "false" and a known area name. For any other line it
// returns false, and the caller hands the line to the general path,
// the reference, which gives the line's record or its error.
func (p *rowParser) decode(l []byte, ext bool, out *channel.Record) (channel.NetworkID, bool) {
	i := bytes.IndexByte(l, ',')
	if i < 0 || bytes.IndexByte(l[:i], '"') >= 0 {
		return channel.NetworkInvalid, false
	}
	n, err := p.network(l[:i])
	if err != nil {
		return channel.NetworkInvalid, false
	}
	l = l[i+1:]
	*out = channel.Record{}
	s := &out.Sample
	atMs, k := parseDigits(l)
	if k == 0 || k == len(l) || l[k] != ',' || atMs > maxMs {
		return n, false
	}
	s.At = time.Duration(atMs) * time.Millisecond
	l = l[k+1:]
	var ok bool
	var rttMs float64
	for _, dst := range [...]*float64{&s.DownMbps, &s.UpMbps, &rttMs, &s.LossDown, &s.LossUp, &s.SignalDB} {
		if *dst, l, ok = fixedColumn(l); !ok {
			return n, false
		}
	}
	ns := rttMs * float64(time.Millisecond)
	if ns >= 1<<63 || ns < -1<<63 {
		return n, false
	}
	s.RTT = time.Duration(ns)
	i = bytes.IndexByte(l, ',')
	if i < 0 || bytes.IndexByte(l[:i], '"') >= 0 {
		return n, false
	}
	serving := l[:i]
	l = l[i+1:]
	if s.Outage, l, ok = boolColumn(l, !ext); !ok {
		return n, false
	}
	if ext {
		i = bytes.IndexByte(l, ',')
		if i < 0 {
			return n, false
		}
		if out.Env.Area, ok = geo.ParseArea(string(l[:i])); !ok {
			return n, false
		}
		if out.Env.SpeedKmh, l, ok = fixedColumn(l[i+1:]); !ok {
			return n, false
		}
		if s.Burst, _, ok = boolColumn(l, true); !ok {
			return n, false
		}
	}
	s.Serving = p.intern(serving)
	out.Env.At = s.At
	return n, true
}

// fixedColumn parses the number at the start of l, which parseFixed
// must take whole up to the column's comma, and returns the rest of the
// line after the comma.
func fixedColumn(l []byte) (float64, []byte, bool) {
	v, n, ok := parseFixed(l)
	if !ok || n == len(l) || l[n] != ',' {
		return 0, nil, false
	}
	return v, l[n+1:], true
}

// boolColumn parses "true" or "false" at the start of l and returns the
// rest of the line after the column's comma, or, if last, checks that
// only the line's newline follows.
func boolColumn(l []byte, last bool) (bool, []byte, bool) {
	v, n := parseBoolPrefix(l)
	if n == 0 {
		return false, nil, false
	}
	l = l[n:]
	if last {
		return v, nil, len(l) == lengthNL(l)
	}
	if len(l) == 0 || l[0] != ',' {
		return false, nil, false
	}
	return v, l[1:], true
}

// maxMs is the largest whole number of milliseconds a time.Duration
// holds, either sign.
const maxMs = math.MaxInt64 / int64(time.Millisecond)

var (
	errOutOfRange = errors.New("out of range")
	errNotFinite  = errors.New("not finite")
)

// parseFinite parses a numeric column, rejecting NaN and ±Inf, which the
// generator never writes and no consumer can use. A column parseFixed
// takes whole is parsed there; any other goes to strconv, so every
// error, and its text, is strconv's.
func parseFinite(field []byte) (float64, error) {
	if v, n, ok := parseFixed(field); ok && n == len(field) {
		return v, nil
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(string(field)), 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = errNotFinite
	}
	return v, err
}

// float64pow10 holds the powers of ten parseFixed divides by, each
// exact in a float64.
var float64pow10 = [...]float64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
}

// parseFixed parses [-]digits[.digits], the form appendFixed writes, at
// the start of b: it stops at the first byte that cannot go on with
// that form, and n is the bytes it consumed; a column is the number
// only if n == len(b). The value is strconv.ParseFloat's of b[:n] when
// there are at most 15 digits after any leading zeros and at most 15
// after the point: the digits make an integer mant below 10^15, so mant
// and 10^frac are exact float64s and their quotient is correctly
// rounded. That is strconv's own first step (atof64exact). ok is false,
// and n then means nothing, when b[:n] holds no digit, more digits than
// that, or more than 19 in all (which mant could not hold); a '+',
// spaces, exponents, inf and nan end the number before its end, or
// before it starts.
func parseFixed(b []byte) (v float64, n int, ok bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		n = 1
	}
	start := n
	var mant uint64
	for ; n < len(b) && b[n]-'0' <= 9; n++ {
		mant = mant*10 + uint64(b[n]-'0')
	}
	digits, frac := n-start, 0
	if n < len(b) && b[n] == '.' {
		n++
		for ; n < len(b) && b[n]-'0' <= 9; n++ {
			mant = mant*10 + uint64(b[n]-'0')
		}
		frac = n - start - digits - 1
		digits += frac
	}
	if digits == 0 || digits > 19 || mant >= 1e15 || frac > 15 {
		return 0, n, false
	}
	v = float64(mant)
	if neg {
		v = -v
	}
	return v / float64pow10[frac], n, true
}

// parseDigits parses the bare digits at the start of b, at most 18 of
// them, which cannot overflow, and reports how many it consumed.
func parseDigits(b []byte) (v int64, n int) {
	for ; n < len(b) && n < 18; n++ {
		c := b[n]
		if c < '0' || c > '9' {
			break
		}
		v = v*10 + int64(c-'0')
	}
	return v, n
}

// parseInt parses an integer column like strconv.ParseInt(s, 10, 64) of
// the trimmed column, taking up to 18 bare digits itself.
func parseInt(b []byte) (int64, error) {
	if v, n := parseDigits(b); n > 0 && n == len(b) {
		return v, nil
	}
	return strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
}

// parseBoolPrefix matches the writer's "true" or "false" at the start
// of b and reports the bytes it consumed, 0 for neither.
func parseBoolPrefix(b []byte) (v bool, n int) {
	switch {
	case len(b) >= 4 && string(b[:4]) == "true":
		return true, 4
	case len(b) >= 5 && string(b[:5]) == "false":
		return false, 5
	}
	return false, 0
}

// parseBool parses a bool column like strconv.ParseBool of the trimmed
// column, matching the writer's "true" and "false" directly.
func parseBool(b []byte) (bool, error) {
	if v, n := parseBoolPrefix(b); n > 0 && n == len(b) {
		return v, nil
	}
	return strconv.ParseBool(strings.TrimSpace(string(b)))
}

func parseSample(rec [][]byte) (channel.Sample, error) {
	var s channel.Sample
	atMs, err := parseInt(rec[0])
	if err == nil && (atMs > maxMs || atMs < -maxMs) {
		err = errOutOfRange
	}
	if err != nil {
		return s, fmt.Errorf("bad at_ms %q: %w", rec[0], err)
	}
	s.At = time.Duration(atMs) * time.Millisecond
	fields := []*float64{&s.DownMbps, &s.UpMbps, nil, &s.LossDown, &s.LossUp, &s.SignalDB}
	for i, dst := range fields {
		if dst == nil {
			continue
		}
		v, err := parseFinite(rec[1+i])
		if err != nil {
			return s, fmt.Errorf("bad field %d %q: %w", i, rec[1+i], err)
		}
		*dst = v
	}
	rttMs, err := parseFinite(rec[3])
	ns := rttMs * float64(time.Millisecond)
	if err == nil && (ns >= 1<<63 || ns < -1<<63) {
		err = errOutOfRange
	}
	if err != nil {
		return s, fmt.Errorf("bad rtt %q: %w", rec[3], err)
	}
	s.RTT = time.Duration(ns)
	s.Outage, err = parseBool(rec[8])
	if err != nil {
		return s, fmt.Errorf("bad outage %q: %w", rec[8], err)
	}
	return s, nil
}

// mahimahiMTU is the bytes-per-opportunity constant of the Mahimahi
// trace format: each line grants one 1500-byte delivery opportunity.
const mahimahiMTU = 1500

// maxMahimahiMs bounds an opportunity's timestamp at one day, far above
// any replay window (the paper's are 300 s) or single drive. A reader
// that builds one sample per second up to the latest opportunity would
// otherwise pay billions of samples for one line.
const maxMahimahiMs = 24 * 60 * 60 * 1000

// WriteMahimahi converts the downlink capacity of tr into a Mahimahi
// packet-delivery trace: one line per 1500-byte delivery opportunity,
// each holding the opportunity's timestamp in integer milliseconds.
// This is the conversion the paper performs to replay UDP throughput
// traces on MpShell. It accepts opportunities in [0, maxMahimahiMs]
// only: one outside that range is a "trace:" error, after the lines
// before it have been written.
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
			at := int64(startMs + durMs*float64(k)/float64(n))
			if at < 0 || at > maxMahimahiMs {
				bw.Flush()
				return fmt.Errorf("trace: mahimahi opportunity at %d ms outside [0, %d]", at, maxMahimahiMs)
			}
			if _, err := fmt.Fprintf(bw, "%d\n", at); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
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
