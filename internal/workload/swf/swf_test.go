package swf

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

const sample = `; Version: 2
; Computer: IBM SP2
; UnixStartTime: 835465983
; just a comment without a directive
1 0 10 3600 16 3590.5 -1 16 43200 -1 1 5 1 -1 1 1 -1 -1
2 120 5 120 1 -1 -1 1 900 -1 1 7 1 -1 0 1 -1 -1
`

func TestParseSample(t *testing.T) {
	tr, err := Parse(strings.NewReader(sample), Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Directives) != 3 {
		t.Fatalf("%d directives, want 3", len(tr.Directives))
	}
	if v, ok := tr.Directive("unixstarttime"); !ok || v != "835465983" {
		t.Fatalf("UnixStartTime = %q, %v", v, ok)
	}
	if _, ok := tr.Directive("nope"); ok {
		t.Fatal("found absent directive")
	}
	if len(tr.Records) != 2 {
		t.Fatalf("%d records, want 2", len(tr.Records))
	}
	want := Record{JobID: 1, Submit: 0, Wait: 10, Runtime: 3600, Procs: 16,
		AvgCPU: 3590.5, UsedMem: -1, ReqProcs: 16, ReqTime: 43200, ReqMem: -1,
		Status: 1, User: 5, Group: 1, Executable: -1, Queue: 1, Partition: 1,
		PrevJob: -1, ThinkTime: -1}
	if tr.Records[0] != want {
		t.Fatalf("record 0 = %+v\nwant       %+v", tr.Records[0], want)
	}
	if tr.Records[1].User != 7 || tr.Records[1].Runtime != 120 {
		t.Fatalf("record 1 = %+v", tr.Records[1])
	}
}

func TestTolerantRepairs(t *testing.T) {
	cases := []struct {
		name, line string
		check      func(Record) bool
	}{
		{"short record padded", "3 60", func(r Record) bool {
			return r.JobID == 3 && r.Submit == 60 && r.Wait == Missing && r.ThinkTime == Missing
		}},
		{"garbage field repaired", "4 x 5 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1", func(r Record) bool {
			return r.JobID == 4 && r.Submit == Missing && r.Wait == 5
		}},
		{"surplus fields dropped", strings.Repeat("7 ", 25), func(r Record) bool {
			return r.JobID == 7 && r.ThinkTime == 7
		}},
		{"fraction truncated", "5.9 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1", func(r Record) bool {
			return r.JobID == 5
		}},
		{"below -1 repaired", "-7 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1", func(r Record) bool {
			return r.JobID == Missing
		}},
		{"huge value repaired", "1e300 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1", func(r Record) bool {
			return r.JobID == Missing
		}},
		{"non-finite repaired", "Inf -1 -1 -1 -1 NaN -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1", func(r Record) bool {
			return r.JobID == Missing && r.AvgCPU == Missing
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := Parse(strings.NewReader(tc.line+"\n"), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(tr.Records) != 1 || !tc.check(tr.Records[0]) {
				t.Fatalf("parsed %+v", tr.Records)
			}
		})
	}
}

func TestStrictErrors(t *testing.T) {
	cases := []struct {
		name, src string
		line      int
	}{
		{"short record", "1 2 3\n", 1},
		{"bad number", "1 x 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18\n", 1},
		{"fractional int", "1.5 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18\n", 1},
		{"below -1", "-2 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18\n", 1},
		{"later line", "; ok: yes\n1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18\nbroken\n", 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tc.src), Options{Strict: true})
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *ParseError", err)
			}
			if pe.Line != tc.line {
				t.Fatalf("line %d, want %d", pe.Line, tc.line)
			}
		})
	}
	// The same inputs parse tolerantly.
	for _, tc := range cases {
		if _, err := Parse(strings.NewReader(tc.src), Options{}); err != nil {
			t.Fatalf("tolerant parse of %q failed: %v", tc.name, err)
		}
	}
}

func TestRoundTripCanonical(t *testing.T) {
	tr, err := Parse(strings.NewReader(sample), Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	out := Format(tr)
	tr2, err := Parse(strings.NewReader(out), Options{Strict: true})
	if err != nil {
		t.Fatalf("canonical form does not reparse strictly: %v\n%s", err, out)
	}
	if !reflect.DeepEqual(tr, tr2) {
		t.Fatalf("round trip diverged:\n%+v\n%+v", tr, tr2)
	}
	// Serializing again must be byte-identical.
	if out2 := Format(tr2); out2 != out {
		t.Fatalf("serialization not canonical:\n%q\n%q", out, out2)
	}
}

func TestDirectiveEdgeCases(t *testing.T) {
	tr, err := Parse(strings.NewReader("; no colon here\n;; Multi: semi\n;Key:value\n; two words: v\n"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Directive{{Key: "Multi", Value: "semi"}, {Key: "Key", Value: "value"}}
	if !reflect.DeepEqual(tr.Directives, want) {
		t.Fatalf("directives %+v, want %+v", tr.Directives, want)
	}
}

func TestParseErrorMessage(t *testing.T) {
	_, err := Parse(strings.NewReader("1 x 0 60 1 -1 -1 1 60 -1 1 1 1 1 1 1 -1 -1\n"), Options{Strict: true})
	if err == nil {
		t.Fatal("strict parse accepted a non-numeric field")
	}
	if got := err.Error(); !strings.Contains(got, "swf: line 1:") {
		t.Fatalf("error %q lacks location prefix", got)
	}
}
