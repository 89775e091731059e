// Package scanio is the one implementation of the archive line format
// behind the SWF and GWF workload-log parsers. An archive is a text
// file of one job record per line, whitespace-separated columns with
// -1 for a missing value, and header comments that may carry
// `Key: value` directives. The two formats differ only in their
// comment marker and their column table, which a Dialect describes;
// everything else lives here once: the line scanner (64 KiB initial
// buffer, 1 MiB line cap, 1-based line counting), the streaming
// Reader and the collect-all Parse over it, the directive parser, the
// tolerant/strict conversion of numeric columns, the line-numbered
// ParseError and the canonical serializer.
//
// Parsing is tolerant by default: short records are padded with -1,
// unparseable or non-finite numerics and values below -1 become -1,
// fractional integers are truncated and surplus columns dropped, so
// real archive logs with local quirks still load. Strict mode turns
// every such repair into a ParseError naming the line, for validating
// fixtures and generated traces. The serializer emits a canonical form
// (directives, then records, single-space separated), and
// parse→serialize→parse is a fixed point.
//
// A line exceeding the cap surfaces from the Scanner as a
// *TooLongError carrying the offending line number (and unwrapping to
// bufio.ErrTooLong), instead of the bare, position-free scanner
// error; a Reader reports it as a ParseError.
//
// A record line is parsed in the scanner's buffer, without a copy: a
// column's text (Column.Tok) is a view of the line, valid only while
// the Dialect's Column function runs. What outlives the line is
// copied: directive keys and values here, and any text column a
// dialect keeps in its record.
package scanio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

const (
	// initialBuf is the scanner's starting buffer size.
	initialBuf = 64 * 1024
	// MaxLine is the longest accepted input line.
	MaxLine = 1024 * 1024
)

// TooLongError reports an input line exceeding MaxLine.
type TooLongError struct {
	// Line is the 1-based number of the over-long line.
	Line int
}

func (e *TooLongError) Error() string {
	return fmt.Sprintf("line %d exceeds the %d-byte line limit", e.Line, MaxLine)
}

// Unwrap lets errors.Is(err, bufio.ErrTooLong) keep working.
func (e *TooLongError) Unwrap() error { return bufio.ErrTooLong }

// scanner yields input lines with their 1-based line numbers.
type scanner struct {
	sc   *bufio.Scanner
	line int
}

// newScanner wraps r in a Scanner with the shared buffer policy.
func newScanner(r io.Reader) *scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, initialBuf), MaxLine)
	return &scanner{sc: sc}
}

// next returns the next line and its number. The line is the
// scanner's buffer, valid until the next call. It returns io.EOF when
// the input is exhausted, a *TooLongError for an over-long line, and
// the underlying reader's error otherwise.
func (s *scanner) next() (text []byte, line int, err error) {
	if s.sc.Scan() {
		s.line++
		return s.sc.Bytes(), s.line, nil
	}
	if err := s.sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, s.line + 1, &TooLongError{Line: s.line + 1}
		}
		return nil, s.line + 1, err
	}
	return nil, s.line, io.EOF
}

// view is b read as a string in place, without a copy. It is valid as
// long as b is: until the scanner reads the next line.
func view(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// fields splits s around runs of ASCII whitespace into dst and
// returns the total number of fields in s, which may exceed len(dst)
// (the extras are counted but not stored). Unlike strings.Fields it
// performs no allocation, so the per-record parsers can tokenize into
// a stack-resident scratch array.
func fields(s string, dst []string) int {
	n := 0
	i := 0
	for {
		for i < len(s) && asciiSpace(s[i]) {
			i++
		}
		if i == len(s) {
			return n
		}
		start := i
		for i < len(s) && !asciiSpace(s[i]) {
			i++
		}
		if n < len(dst) {
			dst[n] = s[start:i]
		}
		n++
	}
}

func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// Missing is the archive encoding for an absent value.
const Missing = -1

// missingTok stands in for the columns a short record lacks.
const missingTok = "-1"

// Dialect describes one archive format: all that SWF and GWF do not
// share.
type Dialect[R any] struct {
	// Name prefixes errors ("swf: line 3: ...").
	Name string
	// Comment starts a header line, which may carry a directive.
	Comment string
	// NumFields is the number of columns in one record.
	NumFields int
	// Column stores one column of a record line into rec.
	Column func(rec *R, c *Column) error
	// Fields renders a record in canonical column order.
	Fields func(R) []string
}

// Directive is one `Key: value` header line, order-preserved.
type Directive struct {
	Key   string
	Value string
}

// Trace is a parsed archive.
type Trace[R any] struct {
	// Directives are the recognized `Key: value` header lines in file
	// order. Plain comments are discarded.
	Directives []Directive
	// Records are the job entries in file order.
	Records []R
}

// Directive returns the value of the first directive with the given
// key (case-insensitive), and whether it was present.
func (t *Trace[R]) Directive(key string) (string, bool) {
	for _, d := range t.Directives {
		if strings.EqualFold(d.Key, key) {
			return d.Value, true
		}
	}
	return "", false
}

// Options controls parsing.
type Options struct {
	// Strict rejects malformed records instead of repairing them:
	// wrong field counts, unparseable or non-integral integer fields,
	// and values below -1 all become errors carrying the line number.
	Strict bool
}

// A ParseError reports where a strict parse failed.
type ParseError struct {
	Line int
	Msg  string
	name string // the dialect's Name
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("%s: line %d: %s", e.name, e.Line, e.Msg)
}

// Column is one column of a record line, handed to a Dialect's Column
// function together with the conversions that apply the parse's
// tolerance.
type Column struct {
	// Index is the 0-based column number.
	Index int
	// Tok is the column's text; a column the line lacks reads "-1". It
	// is a view of the scanner's buffer, valid only during the Column
	// call: a dialect that keeps it in the record copies it.
	Tok string

	line   int
	strict bool
	name   string
}

func (c *Column) fail(msg string) error {
	return &ParseError{name: c.name, Line: c.line, Msg: fmt.Sprintf("field %d: %s", c.Index+1, msg)}
}

// Num parses the column as a number. Tolerant mode repairs anything
// unparseable (or non-finite, which the canonical serializer could
// not round-trip) and anything below -1 to Missing.
func (c *Column) Num() (float64, error) {
	var v float64
	if n, err := strconv.ParseInt(c.Tok, 10, 64); err == nil && (n != 0 || c.Tok[0] != '-') {
		// Nearly every archive column is a decimal integer. ParseInt
		// reads it faster than ParseFloat, and both round the same
		// exact value to the nearest float64 ("-0" is left to
		// ParseFloat, whose result keeps the sign).
		v = float64(n)
	} else if v, err = strconv.ParseFloat(c.Tok, 64); err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		if c.strict {
			return 0, c.fail(fmt.Sprintf("%q is not a number", c.Tok))
		}
		return Missing, nil
	}
	if v < Missing {
		if c.strict {
			return 0, c.fail(fmt.Sprintf("%v below -1", v))
		}
		return Missing, nil
	}
	return v, nil
}

// Int parses the column as an integer, truncating fractions in
// tolerant mode and rejecting them in strict mode.
func (c *Column) Int() (int64, error) {
	v, err := c.Num()
	if err != nil {
		return 0, err
	}
	if v != math.Trunc(v) {
		if c.strict {
			return 0, c.fail(fmt.Sprintf("%v is not an integer", v))
		}
		v = math.Trunc(v)
	}
	// float64(MaxInt64) rounds up to 2^63, so >= is the correct
	// overflow guard for the int64 conversion below.
	if v >= math.MaxInt64 {
		if c.strict {
			return 0, c.fail(fmt.Sprintf("%v overflows", v))
		}
		return Missing, nil
	}
	return int64(v), nil
}

// Reader streams records one at a time: blank lines are skipped,
// header comments carrying `Key: value` accumulate into Directives
// (they may interleave with records), and each remaining line parses
// as one record under the configured tolerance. Memory use is one
// line, independent of trace length.
type Reader[R any] struct {
	sc         *scanner
	d          *Dialect[R]
	directives []Directive
	// fields, col and rec are per-line scratch, kept here so that
	// parsing a record allocates nothing.
	fields []string
	col    Column
	rec    R
}

// NewReader returns a streaming reader of dialect d over r.
func (d *Dialect[R]) NewReader(r io.Reader, opts Options) *Reader[R] {
	return &Reader[R]{
		sc: newScanner(r), d: d,
		fields: make([]string, d.NumFields),
		col:    Column{strict: opts.Strict, name: d.Name},
	}
}

// Next returns the next job record. It returns io.EOF when the input
// is exhausted, a *ParseError for a rejected record (strict mode) or
// an over-long line, and the underlying reader's error otherwise.
func (r *Reader[R]) Next() (R, error) {
	var zero R
	for {
		b, line, err := r.sc.next()
		if err != nil {
			return zero, r.readErr(err)
		}
		text := strings.TrimSpace(view(b))
		switch {
		case text == "":
			continue
		case strings.HasPrefix(text, r.d.Comment):
			if d, ok := parseDirective(text, r.d.Comment); ok {
				r.directives = append(r.directives, d)
			}
		default:
			if err := r.parseRecord(text, line); err != nil {
				return zero, err
			}
			return r.rec, nil
		}
	}
}

// Directives returns the header directives seen so far, in file
// order. The full set is available once Next has returned io.EOF.
func (r *Reader[R]) Directives() []Directive { return r.directives }

// readErr converts scanner failures into the dialect's error shape;
// io.EOF passes through as the stream terminator.
func (r *Reader[R]) readErr(err error) error {
	if err == io.EOF {
		return io.EOF
	}
	var tl *TooLongError
	if errors.As(err, &tl) {
		return &ParseError{name: r.d.Name, Line: tl.Line, Msg: fmt.Sprintf("line exceeds the %d-byte limit", MaxLine)}
	}
	return fmt.Errorf("%s: %w", r.d.Name, err)
}

// parseRecord fills r.rec from one record line.
func (r *Reader[R]) parseRecord(text string, line int) error {
	nf := fields(text, r.fields)
	if r.col.strict && nf != len(r.fields) {
		return &ParseError{name: r.d.Name, Line: line, Msg: fmt.Sprintf("%d fields, want %d", nf, len(r.fields))}
	}
	var zero R
	r.rec = zero
	c := &r.col
	c.line = line
	for i := range r.fields {
		c.Index, c.Tok = i, missingTok
		if i < nf {
			c.Tok = r.fields[i]
		}
		if err := r.d.Column(&r.rec, c); err != nil {
			return err
		}
	}
	return nil
}

// parseDirective splits a `<marker> Key: value` comment. Comment lines
// without a colon, or with an empty key, are not directives. The key
// and the value are copied out of text, which is a view of the line.
func parseDirective(text, marker string) (Directive, bool) {
	body := strings.TrimSpace(strings.TrimLeft(text, marker))
	i := strings.Index(body, ":")
	if i <= 0 {
		return Directive{}, false
	}
	key := strings.TrimSpace(body[:i])
	if key == "" || strings.ContainsAny(key, " \t") {
		// Keys are single tokens (UnixStartTime, MaxNodes, ...); a
		// colon later in running text is not a directive.
		return Directive{}, false
	}
	return Directive{Key: strings.Clone(key), Value: strings.Clone(strings.TrimSpace(body[i+1:]))}, true
}

// Parse reads a whole archive; it is the collect-all wrapper over
// Reader.
func (d *Dialect[R]) Parse(r io.Reader, opts Options) (*Trace[R], error) {
	rd := d.NewReader(r, opts)
	t := &Trace[R]{}
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		t.Records = append(t.Records, rec)
	}
	t.Directives = rd.Directives()
	return t, nil
}

// Write serializes the trace canonically: directives first, then one
// single-space-separated record per line.
func (d *Dialect[R]) Write(w io.Writer, t *Trace[R]) error {
	bw := bufio.NewWriter(w)
	for _, dir := range t.Directives {
		if _, err := fmt.Fprintf(bw, "%s %s: %s\n", d.Comment, dir.Key, dir.Value); err != nil {
			return err
		}
	}
	for _, r := range t.Records {
		if _, err := bw.WriteString(strings.Join(d.Fields(r), " ") + "\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Format returns the canonical serialization as a string.
func (d *Dialect[R]) Format(t *Trace[R]) string {
	var sb strings.Builder
	_ = d.Write(&sb, t) // strings.Builder writes cannot fail
	return sb.String()
}
