package gwf

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
	rec := "1 0 5 300 1 -1 -1 1 -1 -1 1 12 3 -1 0 0 2 2 UNITARY -1 -1 -1 -1 -1 -1 -1 -1 vo0 p1"
	src := "# Version: 2.0\n" + rec + "\n# Site: g5k\n" + rec + "\n"
	r := NewReader(strings.NewReader(src), Options{})
	recs := drainReader(t, r)
	if len(recs) != 2 {
		t.Fatalf("records = %+v", recs)
	}
	ds := r.Directives()
	if len(ds) != 2 || ds[1].Key != "Site" {
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
	src := "# Version: 2.0\n" + strings.Repeat("9", 2*1024*1024) + "\n"
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

// TestStringFieldsOutliveTheLine: records are parsed in the scanner's
// buffer, which later lines overwrite once the input outgrows it. The
// string columns and directives a record or the header kept must still
// read as they were after the rest of the archive has been scanned.
func TestStringFieldsOutliveTheLine(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("# Note: kept from the header\n")
	sb.WriteString("1 0 -1 60 1 -1 -1 1 -1 -1 1 1 1 -1 -1 -1 2 2 UNITARY seq=1 -1 -1 cpu=1 x86 -1 -1 mem=2 voA projA\n")
	// Well past the scanner's 64 KiB buffer, with other text in every
	// string column.
	for sb.Len() < 512*1024 {
		sb.WriteString("2 0 -1 60 1 -1 -1 1 -1 -1 1 1 1 -1 -1 -1 2 2 BAGOFTASKS zzzzz -1 -1 zzzzz zzz -1 -1 zzzzz zzz zzzzz\n")
	}
	r := NewReader(strings.NewReader(sb.String()), Options{})
	recs := drainReader(t, r)
	first := recs[0]
	got := []string{first.Structure, first.StructureParams, first.UsedResources, first.ReqPlatform, first.ReqResources, first.VO, first.Project}
	want := []string{"UNITARY", "seq=1", "cpu=1", "x86", "mem=2", "voA", "projA"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("first record's string columns read %q after the archive was scanned, want %q", got, want)
	}
	if d := r.Directives(); len(d) != 1 || d[0].Key != "Note" || d[0].Value != "kept from the header" {
		t.Fatalf("directives read %+v after the archive was scanned", d)
	}
}
