package gwf

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

const sample = `# Version: 2.0
# Computer: Grid5000
# plain comment
1 0 5 300 1 295.5 -1 1 3600 -1 1 12 3 -1 0 0 2 2 UNITARY -1 -1 -1 -1 -1 -1 -1 -1 vo0 p1
2 60 -1 7200 8 -1 -1 8 -1 -1 1 4 1 -1 0 0 1 3 BOT 16 0.5 12.5 -1 AMD64 -1 -1 -1 vo1 -1
`

func TestParseSample(t *testing.T) {
	tr, err := Parse(strings.NewReader(sample), Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Directives) != 2 {
		t.Fatalf("%d directives, want 2", len(tr.Directives))
	}
	if v, ok := tr.Directive("computer"); !ok || v != "Grid5000" {
		t.Fatalf("Computer = %q, %v", v, ok)
	}
	if len(tr.Records) != 2 {
		t.Fatalf("%d records, want 2", len(tr.Records))
	}
	want := Record{JobID: 1, Submit: 0, Wait: 5, Runtime: 300, Procs: 1,
		AvgCPU: 295.5, UsedMem: -1, ReqProcs: 1, ReqTime: 3600, ReqMem: -1,
		Status: 1, User: 12, Group: 3, Executable: -1, Queue: 0, Partition: 0,
		OrigSite: 2, LastRunSite: 2, Structure: "UNITARY", StructureParams: "-1",
		UsedNetwork: -1, UsedDisk: -1, UsedResources: "-1", ReqPlatform: "-1",
		ReqNetwork: -1, ReqDisk: -1, ReqResources: "-1", VO: "vo0", Project: "p1"}
	if tr.Records[0] != want {
		t.Fatalf("record 0 = %+v\nwant       %+v", tr.Records[0], want)
	}
	r1 := tr.Records[1]
	if r1.Structure != "BOT" || r1.StructureParams != "16" || r1.UsedNetwork != 0.5 ||
		r1.UsedDisk != 12.5 || r1.ReqPlatform != "AMD64" || r1.VO != "vo1" {
		t.Fatalf("record 1 = %+v", r1)
	}
}

func TestTolerantRepairs(t *testing.T) {
	cases := []struct {
		name, line string
		check      func(Record) bool
	}{
		{"short record padded", "3 60 5", func(r Record) bool {
			return r.JobID == 3 && r.Submit == 60 && r.Wait == 5 &&
				r.Runtime == Missing && r.Structure == "-1" && r.Project == "-1"
		}},
		{"garbage numeric repaired", "x 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 s1 s2 1 2 s3 s4 3 4 s5 s6 s7", func(r Record) bool {
			return r.JobID == Missing && r.Submit == 1 && r.Structure == "s1"
		}},
		{"strings verbatim", "1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 UNITARY p=3,k=9 1 2 cpu:4 ia64 3 4 net>1 VO:atlas proj#7", func(r Record) bool {
			return r.StructureParams == "p=3,k=9" && r.UsedResources == "cpu:4" &&
				r.ReqResources == "net>1" && r.VO == "VO:atlas" && r.Project == "proj#7"
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
	valid := "1 0 5 300 1 -1 -1 1 3600 -1 1 12 3 -1 0 0 2 2 UNITARY -1 -1 -1 -1 -1 -1 -1 -1 vo0 p1"
	cases := []struct {
		name, src string
	}{
		{"short record", "1 2 3\n"},
		{"bad numeric", "z 0 5 300 1 -1 -1 1 3600 -1 1 12 3 -1 0 0 2 2 UNITARY -1 -1 -1 -1 -1 -1 -1 -1 vo0 p1\n"},
		{"fractional int", "1.5 0 5 300 1 -1 -1 1 3600 -1 1 12 3 -1 0 0 2 2 UNITARY -1 -1 -1 -1 -1 -1 -1 -1 vo0 p1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tc.src), Options{Strict: true})
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *ParseError", err)
			}
			if _, err := Parse(strings.NewReader(tc.src), Options{}); err != nil {
				t.Fatalf("tolerant parse failed: %v", err)
			}
		})
	}
	if _, err := Parse(strings.NewReader(valid+"\n"), Options{Strict: true}); err != nil {
		t.Fatalf("valid record rejected: %v", err)
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
	if out2 := Format(tr2); out2 != out {
		t.Fatalf("serialization not canonical:\n%q\n%q", out, out2)
	}
}

func TestParseErrorMessage(t *testing.T) {
	_, err := Parse(strings.NewReader("1 x\n"), Options{Strict: true})
	if err == nil {
		t.Fatal("strict parse accepted a truncated record")
	}
	const wantPrefix = "gwf: line 1:"
	if got := err.Error(); len(got) < len(wantPrefix) || got[:len(wantPrefix)] != wantPrefix {
		t.Fatalf("error %q lacks location prefix %q", got, wantPrefix)
	}
}
