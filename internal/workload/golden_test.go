package workload

import (
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"crossbroker/internal/workload/gwf"
	"crossbroker/internal/workload/swf"
)

// The checked-in fixtures are canonical-form excerpts in the style of
// the Parallel Workloads Archive's CTC SP2 log and the Grid Workloads
// Archive's Grid5000 log. These tests pin the exact parse of every
// field and the streamed normalization into TraceJobs.

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestGoldenSWF(t *testing.T) {
	raw := readFixture(t, "ctc_sp2.swf")
	tr, err := swf.Parse(strings.NewReader(string(raw)), swf.Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Directives) != 8 || len(tr.Records) != 12 {
		t.Fatalf("%d directives, %d records", len(tr.Directives), len(tr.Records))
	}
	if v, _ := tr.Directive("MaxNodes"); v != "430" {
		t.Fatalf("MaxNodes = %q", v)
	}
	// The fixture is canonical: serializing the parse must reproduce
	// the file byte for byte, which pins every field of every record.
	if out := swf.Format(tr); out != string(raw) {
		t.Fatalf("fixture is not canonical:\n--- file ---\n%s--- reserialized ---\n%s", raw, out)
	}
	// Spot-pin full records at the head, a -1-riddled row, and the
	// runtime-fallback row.
	want := map[int]swf.Record{
		0: {JobID: 1, Submit: 0, Wait: 120, Runtime: 10800, Procs: 32,
			AvgCPU: 10750.2, UsedMem: -1, ReqProcs: 32, ReqTime: 43200, ReqMem: -1,
			Status: 1, User: 101, Group: 10, Executable: 4, Queue: 1, Partition: 1,
			PrevJob: -1, ThinkTime: -1},
		5: {JobID: 6, Submit: 2100, Wait: 10, Runtime: 480, Procs: 1,
			AvgCPU: -1, UsedMem: -1, ReqProcs: 1, ReqTime: 600, ReqMem: -1,
			Status: 1, User: 105, Group: 12, Executable: 7, Queue: 0, Partition: 1,
			PrevJob: -1, ThinkTime: -1},
		6: {JobID: 7, Submit: 3900, Wait: 900, Runtime: -1, Procs: -1,
			AvgCPU: -1, UsedMem: -1, ReqProcs: 8, ReqTime: 7200, ReqMem: -1,
			Status: 0, User: 106, Group: 11, Executable: 5, Queue: 1, Partition: 1,
			PrevJob: -1, ThinkTime: -1},
	}
	for i, w := range want {
		if tr.Records[i] != w {
			t.Fatalf("record %d = %+v\nwant       %+v", i, tr.Records[i], w)
		}
	}

	rd := newTraceReader(strings.NewReader(string(raw)), FormatSWF, TraceReaderOptions{Strict: true})
	jobs := drainTraceReader(t, rd)
	if rd.Dropped() != 0 || len(jobs) != 12 {
		t.Fatalf("streamed: %d jobs, %d dropped", len(jobs), rd.Dropped())
	}
	// Job 7 lacks a recorded runtime and width; normalization falls
	// back to the requested time and processors.
	j7 := jobs[6]
	wantJ7 := TraceJob{ID: 7, Submit: 3900 * time.Second, Runtime: 7200 * time.Second,
		Nodes: 8, User: "/O=Trace/CN=user106"}
	if j7 != wantJ7 {
		t.Fatalf("job 7 = %+v, want %+v", j7, wantJ7)
	}
	if jobs[0].Submit != 0 || jobs[11].Submit != 12600*time.Second {
		t.Fatalf("submit offsets not rebased: %v .. %v", jobs[0].Submit, jobs[11].Submit)
	}
}

func TestGoldenGWF(t *testing.T) {
	raw := readFixture(t, "grid5000.gwf")
	tr, err := gwf.Parse(strings.NewReader(string(raw)), gwf.Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Directives) != 6 || len(tr.Records) != 10 {
		t.Fatalf("%d directives, %d records", len(tr.Directives), len(tr.Records))
	}
	if out := gwf.Format(tr); out != string(raw) {
		t.Fatalf("fixture is not canonical:\n--- file ---\n%s--- reserialized ---\n%s", raw, out)
	}
	want := map[int]gwf.Record{
		0: {JobID: 1, Submit: 0, Wait: 4, Runtime: 300, Procs: 1, AvgCPU: 295.5,
			UsedMem: -1, ReqProcs: 1, ReqTime: 3600, ReqMem: -1, Status: 1,
			User: 12, Group: 3, Executable: -1, Queue: 0, Partition: 0,
			OrigSite: 2, LastRunSite: 2, Structure: "UNITARY", StructureParams: "-1",
			UsedNetwork: -1, UsedDisk: -1, UsedResources: "-1", ReqPlatform: "-1",
			ReqNetwork: -1, ReqDisk: -1, ReqResources: "-1", VO: "vo0", Project: "p1"},
		4: {JobID: 5, Submit: 900, Wait: 1200, Runtime: 10800, Procs: 32, AvgCPU: -1,
			UsedMem: -1, ReqProcs: 32, ReqTime: 14400, ReqMem: -1, Status: 1,
			User: 9, Group: 2, Executable: -1, Queue: 1, Partition: 0,
			OrigSite: 3, LastRunSite: 3, Structure: "BOT", StructureParams: "8",
			UsedNetwork: -1, UsedDisk: -1, UsedResources: "-1", ReqPlatform: "-1",
			ReqNetwork: -1, ReqDisk: -1, ReqResources: "-1", VO: "vo2", Project: "p3"},
		6: {JobID: 7, Submit: 2700, Wait: -1, Runtime: -1, Procs: -1, AvgCPU: -1,
			UsedMem: -1, ReqProcs: -1, ReqTime: -1, ReqMem: -1, Status: 5,
			User: 4, Group: 1, Executable: -1, Queue: 0, Partition: 0,
			OrigSite: 1, LastRunSite: -1, Structure: "UNITARY", StructureParams: "-1",
			UsedNetwork: -1, UsedDisk: -1, UsedResources: "-1", ReqPlatform: "-1",
			ReqNetwork: -1, ReqDisk: -1, ReqResources: "-1", VO: "vo0", Project: "-1"},
	}
	for i, w := range want {
		if tr.Records[i] != w {
			t.Fatalf("record %d = %+v\nwant       %+v", i, tr.Records[i], w)
		}
	}

	rd := newTraceReader(strings.NewReader(string(raw)), FormatGWF, TraceReaderOptions{Strict: true})
	jobs := drainTraceReader(t, rd)
	// Job 7 was cancelled before running and requested nothing: it is
	// the one record replay cannot use.
	if rd.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", rd.Dropped())
	}
	sec := func(n int64) time.Duration { return time.Duration(n) * time.Second }
	wantJobs := []TraceJob{
		{ID: 1, Submit: 0, Runtime: sec(300), Nodes: 1, User: "/O=Trace/CN=user12"},
		{ID: 2, Submit: sec(45), Runtime: sec(180), Nodes: 2, User: "/O=Trace/CN=user7"},
		{ID: 3, Submit: sec(120), Runtime: sec(5400), Nodes: 16, User: "/O=Trace/CN=user3"},
		{ID: 4, Submit: sec(300), Runtime: sec(240), Nodes: 1, User: "/O=Trace/CN=user12"},
		{ID: 5, Submit: sec(900), Runtime: sec(10800), Nodes: 32, User: "/O=Trace/CN=user9"},
		{ID: 6, Submit: sec(1800), Runtime: sec(420), Nodes: 4, User: "/O=Trace/CN=user7"},
		{ID: 8, Submit: sec(3600), Runtime: sec(7200), Nodes: 8, User: "/O=Trace/CN=user3"},
		{ID: 9, Submit: sec(5400), Runtime: sec(360), Nodes: 1, User: "/O=Trace/CN=user15"},
		{ID: 10, Submit: sec(6300), Runtime: sec(600), Nodes: 2, User: "/O=Trace/CN=user9"},
	}
	if !reflect.DeepEqual(jobs, wantJobs) {
		t.Fatalf("streamed:\n got %+v\nwant %+v", jobs, wantJobs)
	}

	// The default classification rule tags the short, narrow jobs as
	// interactive sessions.
	s, err := NewStreamReplay(newTraceReader(strings.NewReader(string(raw)), FormatGWF, TraceReaderOptions{}), ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	inter, batch := 0, 0
	for _, a := range collect(t, s) {
		if a.job.Kind == InteractiveJob {
			inter++
		} else {
			batch++
		}
	}
	if inter != 6 || batch != 3 {
		t.Fatalf("classified %d interactive, %d batch; want 6, 3", inter, batch)
	}
}

// OpenTraceReader streams both fixtures strictly and refuses a missing
// file and an unknown extension.
func TestLoadTraceFixtures(t *testing.T) {
	for name, want := range map[string]int{"ctc_sp2.swf": 12, "grid5000.gwf": 9} {
		tr, err := OpenTraceReader("testdata/"+name, TraceReaderOptions{Strict: true})
		if err != nil {
			t.Fatal(err)
		}
		if jobs := drainTraceReader(t, tr); len(jobs) != want {
			t.Fatalf("%s: %d jobs, want %d", name, len(jobs), want)
		}
		tr.Close()
	}
	if _, err := OpenTraceReader("testdata/absent.swf", TraceReaderOptions{}); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := OpenTraceReader("golden_test.go", TraceReaderOptions{}); err == nil {
		t.Fatal("unknown extension accepted")
	}
}
