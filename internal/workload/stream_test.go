package workload

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"crossbroker/internal/workload/gwf"
	"crossbroker/internal/workload/swf"
)

// The materialized replay, kept as the test oracle. It is trace replay
// written the naive way: parse the whole archive into memory, normalize
// every record, stable-sort by (submit, job ID), shift the first
// arrival to zero, then keep the jobs inside the window and scale each
// gap. It shares no reader, reorder heap, user interning or window code
// with the streamed path it checks, only the per-record rules both must
// apply (normalizeFields, traceUser, interactive, scaleGap) and the
// config defaults.

// loadTrace parses and normalizes a whole archive file, .gwf by
// extension and SWF otherwise, and reports how many records
// normalization dropped.
func loadTrace(path string, strict bool) ([]TraceJob, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	return parseTrace(data, strings.EqualFold(filepath.Ext(path), ".gwf"), strict)
}

// parseTrace is loadTrace over an in-memory archive.
func parseTrace(data []byte, isGWF, strict bool) ([]TraceJob, int, error) {
	var raw [][7]int64 // id, submit, runtime, reqTime, procs, reqProcs, user
	if isGWF {
		t, err := gwf.Parse(bytes.NewReader(data), gwf.Options{Strict: strict})
		if err != nil {
			return nil, 0, err
		}
		for _, r := range t.Records {
			raw = append(raw, [7]int64{r.JobID, r.Submit, r.Runtime, r.ReqTime, r.Procs, r.ReqProcs, r.User})
		}
	} else {
		t, err := swf.Parse(bytes.NewReader(data), swf.Options{Strict: strict})
		if err != nil {
			return nil, 0, err
		}
		for _, r := range t.Records {
			raw = append(raw, [7]int64{r.JobID, r.Submit, r.Runtime, r.ReqTime, r.Procs, r.ReqProcs, r.User})
		}
	}
	var jobs []TraceJob
	for _, f := range raw {
		if j, ok := normalizeFields(f[0], f[1], f[2], f[3], f[4], f[5]); ok {
			j.User = traceUser(f[6])
			jobs = append(jobs, j)
		}
	}
	sort.SliceStable(jobs, func(i, k int) bool {
		if jobs[i].Submit != jobs[k].Submit {
			return jobs[i].Submit < jobs[k].Submit
		}
		return jobs[i].ID < jobs[k].ID
	})
	if len(jobs) > 0 {
		base := jobs[0].Submit
		for i := range jobs {
			jobs[i].Submit -= base
		}
	}
	return jobs, len(raw) - len(jobs), nil
}

// arrival is one step of a replay: a job and the delay before it.
type arrival struct {
	job   Job
	delay time.Duration
}

// replayOracle keeps the oracle's sorted, rebased jobs that fall in
// cfg's window, classifies them and scales each gap from the previous
// kept arrival (the window start for the first).
func replayOracle(jobs []TraceJob, cfg ReplayConfig) []arrival {
	cfg.setDefaults()
	start := time.Duration(cfg.StartHour * float64(time.Hour))
	var out []arrival
	prev := start
	for _, tj := range jobs {
		if tj.Submit < start || cfg.EndHour > 0 && tj.Submit >= time.Duration(cfg.EndHour*float64(time.Hour)) {
			continue
		}
		j := Job{Kind: BatchJob, User: tj.User, CPU: tj.Runtime, Nodes: tj.Nodes, TraceID: tj.ID}
		if interactive(tj) {
			j.Kind, j.PerformanceLoss = InteractiveJob, interactivePL
		}
		out = append(out, arrival{j, scaleGap(tj.Submit-prev, cfg.Speedup)})
		prev = tj.Submit
	}
	return out
}

// collect drains a StreamReplay, failing the test on an ingest error.
func collect(t *testing.T, s *StreamReplay) []arrival {
	t.Helper()
	var out []arrival
	for {
		j, d, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, arrival{j, d})
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if s.count != len(out) {
		t.Fatalf("Count() = %d after %d jobs", s.count, len(out))
	}
	return out
}

// streamSWF replays an in-memory SWF archive through the streamed path.
func streamSWF(t *testing.T, src string, cfg ReplayConfig) []arrival {
	t.Helper()
	s, err := NewStreamReplay(newTraceReader(strings.NewReader(src), FormatSWF, TraceReaderOptions{}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return collect(t, s)
}

// renderSWF writes trace jobs as an SWF archive in slice order, submit
// and runtime in whole seconds.
func renderSWF(jobs []TraceJob) string {
	tr := &swf.Trace{}
	for _, j := range jobs {
		var user int64
		fmt.Sscanf(j.User, "/O=Trace/CN=user%d", &user)
		tr.Records = append(tr.Records, swf.Record{
			JobID: j.ID, Submit: int64(j.Submit / time.Second), Wait: -1,
			Runtime: int64(j.Runtime / time.Second), Procs: int64(j.Nodes), AvgCPU: -1,
			UsedMem: -1, ReqProcs: int64(j.Nodes), ReqTime: -1, ReqMem: -1, Status: 1,
			User: user, Group: 1, Executable: -1, Queue: -1, Partition: -1, PrevJob: -1, ThinkTime: -1,
		})
	}
	return swf.Format(tr)
}

// drainTraceReader collects a TraceReader to the end, failing the test
// on any non-EOF error.
func drainTraceReader(t *testing.T, tr *TraceReader) []TraceJob {
	t.Helper()
	var jobs []TraceJob
	for {
		j, err := tr.Next()
		if err == io.EOF {
			return jobs
		}
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
}

// Property: streaming ingest reproduces the materialized loader exactly
// on every golden fixture — same jobs in the same order, same drop
// count.
func TestTraceReaderMatchesLoadTrace(t *testing.T) {
	for _, name := range []string{"ctc_sp2.swf", "grid5000.gwf"} {
		for _, strict := range []bool{false, true} {
			path := "testdata/" + name
			want, wantDropped, err := loadTrace(path, strict)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			tr, err := OpenTraceReader(path, TraceReaderOptions{Strict: strict})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := drainTraceReader(t, tr)
			if err := tr.Close(); err != nil {
				t.Fatalf("%s: close: %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s strict=%v: streamed jobs diverge from the oracle\ngot:  %+v\nwant: %+v", name, strict, got, want)
			}
			if tr.Dropped() != wantDropped {
				t.Fatalf("%s strict=%v: Dropped() = %d, want %d", name, strict, tr.Dropped(), wantDropped)
			}
			if tr.clamped != 0 {
				t.Fatalf("%s: unexpected clamps: %d", name, tr.clamped)
			}
		}
	}
}

// Property: StreamReplay yields the oracle's (Job, delay) sequence for
// every fixture and for out-of-order random traces, across window
// slices and speedups.
func TestStreamReplayMatchesReplay(t *testing.T) {
	configs := []ReplayConfig{
		{},
		{Speedup: 2},
		{Speedup: 4},
		{StartHour: 0.25, EndHour: 2},
		{StartHour: 0.25, EndHour: 2, Speedup: 4},
		{StartHour: 1},
		{EndHour: 0.5, Speedup: 0.5},
		{StartHour: 3, EndHour: 9.5, Speedup: 3.7},
	}
	sources := map[string]string{}
	for _, name := range []string{"ctc_sp2.swf", "grid5000.gwf"} {
		sources[name] = "testdata/" + name
	}
	dir := t.TempDir()
	for seed := int64(1); seed <= 3; seed++ {
		path := filepath.Join(dir, fmt.Sprintf("random%d.swf", seed))
		if err := os.WriteFile(path, []byte(renderSWF(randomTraceJobs(seed, 300, 24))), 0o644); err != nil {
			t.Fatal(err)
		}
		sources[path] = path
	}
	for name, path := range sources {
		jobs, _, err := loadTrace(path, false)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range configs {
			tr, err := OpenTraceReader(path, TraceReaderOptions{})
			if err != nil {
				t.Fatal(err)
			}
			stream, err := NewStreamReplay(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, want := collect(t, stream), replayOracle(jobs, cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s cfg[%d]: stream diverges from the oracle\nstream %+v\noracle %+v", name, i, got, want)
			}
			if err := stream.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// FuzzStreamReplay holds the streamed path to the oracle on arbitrary
// SWF bytes, with the window and speedup decoded from the input:
// startSec and spanSec give the window in trace seconds (span 0 runs to
// the end), speed/8 the speedup (0 keeps the default). Whenever the
// drained reader reports no clamp, OpenTraceReader + NewStreamReplay
// must yield exactly the oracle's sequence. Inputs with more usable
// records than the reorder window are skipped: past it, a record that
// ties an earlier one's submit time is emitted in input order rather
// than by job ID, without a clamp.
func FuzzStreamReplay(f *testing.F) {
	fixture, err := os.ReadFile("testdata/ctc_sp2.swf")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(fixture), uint16(0), uint16(0), uint8(0))
	f.Add(string(fixture), uint16(1800), uint16(7200), uint8(16))
	f.Add(renderSWF(randomTraceJobs(1, 40, 2)), uint16(600), uint16(3000), uint8(3))
	f.Add(swfLine(3, 50)+swfLine(1, 50)+swfLine(2, 10)+"1 -1 10\n2 5 -1 -1 1\n", uint16(0), uint16(45), uint8(8))
	f.Fuzz(func(t *testing.T, src string, startSec, spanSec uint16, speed uint8) {
		cfg := ReplayConfig{StartHour: float64(startSec) / 3600, Speedup: float64(speed) / 8}
		if spanSec > 0 {
			cfg.EndHour = cfg.StartHour + float64(spanSec)/3600
		}
		jobs, _, oracleErr := parseTrace([]byte(src), false, false)
		if oracleErr == nil && len(jobs) > DefaultReorderWindow {
			return
		}
		path := filepath.Join(t.TempDir(), "trace.swf")
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		tr, err := OpenTraceReader(path, TraceReaderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		s, err := NewStreamReplay(tr, cfg)
		if err != nil {
			t.Fatalf("config %+v rejected: %v", cfg, err)
		}
		var got []arrival
		for j, d, ok := s.Next(); ok; j, d, ok = s.Next() {
			got = append(got, arrival{j, d})
		}
		// The window may end the stream early; read the rest so the
		// reader has seen, and could clamp, every record.
		streamErr := s.Err()
		for streamErr == nil {
			if _, err := tr.Next(); err != nil {
				if err != io.EOF {
					streamErr = err
				}
				break
			}
		}
		if (oracleErr != nil) != (streamErr != nil) {
			t.Fatalf("oracle err = %v, stream err = %v", oracleErr, streamErr)
		}
		if oracleErr != nil || tr.clamped != 0 {
			return
		}
		if want := replayOracle(jobs, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("cfg %+v: stream diverges from the oracle\nstream %+v\noracle %+v", cfg, got, want)
		}
	})
}

// swfLine renders a minimal valid record with the given ID and submit
// offset so reorder tests can shape arrival order precisely.
func swfLine(id, submit int64) string {
	return fmt.Sprintf("%d %d -1 60 1 -1 -1 1 -1 -1 1 %d 1 -1 -1 -1 -1 -1\n", id, submit, id%3)
}

// Displacement within the reorder window sorts records into exact
// oracle order, including a late-arriving global minimum that sets the
// rebase origin.
func TestTraceReaderReorderWithinWindow(t *testing.T) {
	var sb strings.Builder
	for _, s := range []int64{40, 10, 20, 30, 0, 50} { // min arrives 4 late
		sb.WriteString(swfLine(s+1, s))
	}
	tr := newTraceReader(strings.NewReader(sb.String()), FormatSWF, TraceReaderOptions{Strict: true, ReorderWindow: 4})
	jobs := drainTraceReader(t, tr)
	for i, want := range []int64{0, 10, 20, 30, 40, 50} {
		if jobs[i].Submit != time.Duration(want)*time.Second {
			t.Fatalf("job %d rebased submit = %v, want %vs", i, jobs[i].Submit, want)
		}
	}
	if tr.clamped != 0 {
		t.Fatalf("Clamped() = %d, want 0", tr.clamped)
	}
}

// Displacement past the window is an error in strict mode and a
// counted monotone clamp in tolerant mode.
func TestTraceReaderReorderBeyondWindow(t *testing.T) {
	var sb strings.Builder
	for _, s := range []int64{100, 110, 120, 130, 140, 5} { // 5 is displaced by 5
		sb.WriteString(swfLine(s, s))
	}
	src := sb.String()

	tr := newTraceReader(strings.NewReader(src), FormatSWF, TraceReaderOptions{Strict: true, ReorderWindow: 4})
	var err error
	for err == nil {
		_, err = tr.Next()
	}
	if err == io.EOF || !strings.Contains(err.Error(), "reorder window") {
		t.Fatalf("strict err = %v, want reorder-window error", err)
	}
	if _, again := tr.Next(); again != err {
		t.Fatalf("error not sticky: %v then %v", err, again)
	}

	tr = newTraceReader(strings.NewReader(src), FormatSWF, TraceReaderOptions{ReorderWindow: 4})
	jobs := drainTraceReader(t, tr)
	if tr.clamped != 1 {
		t.Fatalf("Clamped() = %d, want 1", tr.clamped)
	}
	last := time.Duration(-1)
	for _, j := range jobs {
		if j.Submit < last {
			t.Fatalf("tolerant stream not monotone: %v after %v", j.Submit, last)
		}
		last = j.Submit
	}
	if len(jobs) != 6 {
		t.Fatalf("len = %d, want 6 (clamp keeps the record)", len(jobs))
	}
}

// A window of zero (negative option) still streams an already-sorted
// trace correctly.
func TestTraceReaderNoReorderWindow(t *testing.T) {
	src := swfLine(1, 0) + swfLine(2, 10) + swfLine(3, 20)
	tr := newTraceReader(strings.NewReader(src), FormatSWF, TraceReaderOptions{Strict: true, ReorderWindow: -1})
	if jobs := drainTraceReader(t, tr); len(jobs) != 3 || jobs[2].Submit != 20*time.Second {
		t.Fatalf("jobs = %+v", jobs)
	}
}

// Ingest must stay frugal. An SWF record line is parsed in the
// scanner's buffer, so the reorder heap, record parsing and user
// interning spend nothing per record: a 2000-record pass costs the 25
// allocations of the reader's own setup, 0.0125 per record. A GWF
// record keeps its string columns, copied out of the line in one
// allocation, about one per record; its ceiling is 2. The ceilings
// catch accidental per-record garbage (maps, boxed heap entries or
// records, per-line scratch, line copies, un-interned strings) sneaking
// back in.
func TestTraceReaderAllocsPerRecord(t *testing.T) {
	const n = 2000
	for _, f := range []struct {
		name    string
		format  TraceFormat
		line    func(id, submit int64) string
		ceiling float64
	}{
		{"swf", FormatSWF, swfLine, 25.0 / n},
		{"gwf", FormatGWF, func(id, submit int64) string {
			return fmt.Sprintf("%d %d -1 60 1 -1 -1 1 -1 -1 1 %d 1 -1 -1 -1 2 2 UNITARY -1 -1 -1 -1 -1 -1 -1 -1 vo0 p1\n", id, submit, id%3)
		}, 2},
	} {
		var sb strings.Builder
		for i := int64(0); i < n; i++ {
			sb.WriteString(f.line(i+1, i*3))
		}
		src := sb.String()
		avg := testing.AllocsPerRun(5, func() {
			tr := newTraceReader(strings.NewReader(src), f.format, TraceReaderOptions{})
			for {
				if _, err := tr.Next(); err != nil {
					break
				}
			}
		})
		if perRec := avg / n; perRec > f.ceiling {
			t.Fatalf("%s ingest allocates %.4f per record, ceiling %.4f", f.name, perRec, f.ceiling)
		}
	}
}

// StreamReplay surfaces ingest errors through Err, not a panic or a
// silent truncation.
func TestStreamReplayErr(t *testing.T) {
	tr := newTraceReader(strings.NewReader("not a record\n"), FormatSWF, TraceReaderOptions{Strict: true})
	s, err := NewStreamReplay(tr, ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Next(); ok {
		t.Fatal("Next succeeded on a malformed trace")
	}
	if s.Err() == nil {
		t.Fatal("Err() = nil, want parse error")
	}
}

// StreamReplay satisfies the ReplayStream interface.
var _ ReplayStream = (*StreamReplay)(nil)
