package trace

import (
	"bufio"
	"bytes"
	"io"
)

// Records reads CSV records as an encoding/csv Reader does when set up
// the way the trace and tests.csv readers use it: comma ',', LazyQuotes,
// FieldsPerRecord -1, no comment character and no leading-space trim.
// It returns the same fields, as byte slices into buffers it reuses, so
// reading a record allocates nothing. readLine and readQuoted are ports
// of encoding/csv's readLine and readRecord; a line with no quote, which
// is every line the writers produce for the generated corpus, is split
// in place instead.
//
// Under LazyQuotes encoding/csv reports no parse errors: the only errors
// are the underlying reader's, and Records returns them as encoding/csv
// does, with the fields read before the error.
type Records struct {
	br      *bufio.Reader
	numLine int
	raw     []byte // a line joined over bufio.ErrBufferFull
	buf     []byte // the unescaped fields of a quoted record
	ends    []int  // where each field ends in buf
	fields  [][]byte
}

// NewRecords returns a reader of the CSV records in r, dropping a
// leading UTF-8 byte-order mark.
func NewRecords(r io.Reader) *Records {
	return &Records{br: stripBOM(r)}
}

// Read returns the next record and the line it starts on (numbered from
// 1; a quoted field may carry it over further lines). Empty lines are
// skipped. At the end of the input it returns io.EOF. Any other error
// comes with the fields read before it and line 0. The fields are valid
// only until the next call to Read.
func (c *Records) Read() (fields [][]byte, line int, err error) {
	l, err := c.nextLine()
	if err == io.EOF {
		return nil, 0, io.EOF
	}
	return c.split(l, err)
}

// nextLine reads the next line that is not empty, as readLine returns
// it: with its newline, if any, and valid until the next read. io.EOF
// comes only at the end of the input.
func (c *Records) nextLine() ([]byte, error) {
	for {
		l, err := c.readLine()
		if err == nil && len(l) == lengthNL(l) {
			continue // skip empty lines
		}
		return l, err
	}
}

// split returns the record that starts with line l, the last line
// nextLine read, which came with errRead; a quoted field may read
// further lines. Its results are Read's.
func (c *Records) split(l []byte, errRead error) (fields [][]byte, line int, err error) {
	recLine := c.numLine
	c.fields = c.fields[:0]
	if bytes.IndexByte(l, '"') < 0 {
		l = l[:len(l)-lengthNL(l)]
		for {
			i := bytes.IndexByte(l, ',')
			if i < 0 {
				break
			}
			c.fields = append(c.fields, l[:i])
			l = l[i+1:]
		}
		c.fields = append(c.fields, l)
	} else {
		errRead = c.readQuoted(l, errRead)
		start := 0
		for _, end := range c.ends {
			c.fields = append(c.fields, c.buf[start:end])
			start = end
		}
	}
	if errRead != nil {
		return c.fields, 0, errRead
	}
	return c.fields, recLine, nil
}

// readQuoted parses a record that holds a quote into buf and ends, as
// encoding/csv's readRecord does with LazyQuotes set, reading further
// lines while a quoted field is open. errRead is the error that came
// with line; it returns the read error the record ends with.
func (c *Records) readQuoted(line []byte, errRead error) error {
	c.buf = c.buf[:0]
	c.ends = c.ends[:0]
parseField:
	for {
		if len(line) == 0 || line[0] != '"' {
			// Unquoted field; with LazyQuotes it may hold a quote.
			i := bytes.IndexByte(line, ',')
			field := line
			if i >= 0 {
				field = field[:i]
			} else {
				field = field[:len(field)-lengthNL(field)]
			}
			c.buf = append(c.buf, field...)
			c.ends = append(c.ends, len(c.buf))
			if i >= 0 {
				line = line[i+1:]
				continue parseField
			}
			return errRead
		}
		// Quoted field.
		line = line[1:]
		for {
			i := bytes.IndexByte(line, '"')
			switch {
			case i >= 0:
				c.buf = append(c.buf, line[:i]...)
				line = line[i+1:]
				switch {
				case len(line) > 0 && line[0] == '"': // `""` is a quote
					c.buf = append(c.buf, '"')
					line = line[1:]
				case len(line) > 0 && line[0] == ',': // `",` ends the field
					line = line[1:]
					c.ends = append(c.ends, len(c.buf))
					continue parseField
				case lengthNL(line) == len(line): // `"\n` ends the record
					c.ends = append(c.ends, len(c.buf))
					return errRead
				default: // a bare quote, kept under LazyQuotes
					c.buf = append(c.buf, '"')
				}
			case len(line) > 0:
				// The field goes on past the end of the line.
				c.buf = append(c.buf, line...)
				if errRead != nil {
					return errRead // the open field is dropped
				}
				line, errRead = c.readLine()
				if errRead == io.EOF {
					errRead = nil
				}
			default:
				// End of input inside the quotes ends the field.
				c.ends = append(c.ends, len(c.buf))
				return errRead
			}
		}
	}
}

// readLine reads the next line with its trailing newline, which is
// missing at the end of the input. As in encoding/csv, \r\n becomes \n,
// a \r just before the end of the input is dropped, and io.EOF comes
// only with an empty line. The line is valid until the next call.
func (c *Records) readLine() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		c.raw = append(c.raw[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = c.br.ReadSlice('\n')
			c.raw = append(c.raw, line...)
		}
		line = c.raw
	}
	if n := len(line); n > 0 && err == io.EOF {
		err = nil
		if line[n-1] == '\r' {
			line = line[:n-1]
		}
	}
	c.numLine++
	if n := len(line); n >= 2 && line[n-2] == '\r' && line[n-1] == '\n' {
		line[n-2] = '\n'
		line = line[:n-1]
	}
	return line, err
}

// lengthNL is 1 if b ends in a newline, else 0.
func lengthNL(b []byte) int {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return 1
	}
	return 0
}
