package swf

import (
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// drainReader collects a Reader's records, failing on any non-EOF
// error.
func drainReader(t *testing.T, r *Reader) []Record {
	t.Helper()
	var recs []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return recs
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
}

// The streaming reader and the batch parser must agree record for
// record and directive for directive — Parse is the collect-all
// wrapper over Reader, and this pins the equivalence independently.
func TestReaderMatchesParse(t *testing.T) {
	for _, strict := range []bool{false, true} {
		tr, err := Parse(strings.NewReader(sample), Options{Strict: strict})
		if err != nil {
			t.Fatal(err)
		}
		r := NewReader(strings.NewReader(sample), Options{Strict: strict})
		recs := drainReader(t, r)
		if !reflect.DeepEqual(recs, tr.Records) {
			t.Fatalf("strict=%v: streamed records diverge from batch", strict)
		}
		if !reflect.DeepEqual(r.Directives(), tr.Directives) {
			t.Fatalf("strict=%v: streamed directives diverge from batch", strict)
		}
	}
}

// Directives after the first records still accumulate, and Next keeps
// yielding records across the interleaving.
func TestReaderInterleavedDirectives(t *testing.T) {
	src := "; Version: 2\n" +
		"1 0 -1 60 1 -1 -1 1 -1 -1 1 1 1 -1 -1 -1 -1 -1\n" +
		"; MaxNodes: 8\n" +
		"2 30 -1 60 1 -1 -1 1 -1 -1 1 1 1 -1 -1 -1 -1 -1\n"
	r := NewReader(strings.NewReader(src), Options{})
	recs := drainReader(t, r)
	if len(recs) != 2 || recs[1].JobID != 2 {
		t.Fatalf("records = %+v", recs)
	}
	ds := r.Directives()
	if len(ds) != 2 || ds[1].Key != "MaxNodes" {
		t.Fatalf("directives = %+v", ds)
	}
}

func TestReaderStrictError(t *testing.T) {
	r := NewReader(strings.NewReader("1 2 3\n"), Options{Strict: true})
	_, err := r.Next()
	var pe *ParseError
	if !errors.As(err, &pe) || pe.Line != 1 {
		t.Fatalf("err = %v, want *ParseError at line 1", err)
	}
}

// An over-long line surfaces as a line-numbered *ParseError from both
// the streaming and the batch entry points, not a bare scanner error.
func TestTooLongLineIsParseError(t *testing.T) {
	src := "; Version: 2\n" + strings.Repeat("9", 2*1024*1024) + "\n"
	_, err := Parse(strings.NewReader(src), Options{})
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("Parse err = %v, want *ParseError", err)
	}
	if pe.Line != 2 || !strings.Contains(pe.Error(), "line 2") {
		t.Fatalf("ParseError %v does not name line 2", pe)
	}
	r := NewReader(strings.NewReader(src), Options{})
	if _, err := r.Next(); !errors.As(err, &pe) || pe.Line != 2 {
		t.Fatalf("Reader err = %v, want *ParseError at line 2", err)
	}
}
