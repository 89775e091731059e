package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const gwfFixture = "../../internal/workload/testdata/grid5000.gwf"
const swfFixture = "../../internal/workload/testdata/ctc_sp2.swf"

func TestParseWindow(t *testing.T) {
	cases := []struct {
		in         string
		start, end float64
		ok         bool
	}{
		{"", 0, 0, true},
		{"0:24", 0, 24, true},
		{"1.5:6", 1.5, 6, true},
		{"2:", 2, 0, true},
		{":12", 0, 12, true},
		{"5", 0, 0, false},
		{"a:b", 0, 0, false},
		{"1:x", 0, 0, false},
	}
	for _, c := range cases {
		start, end, err := parseWindow(c.in)
		if c.ok != (err == nil) {
			t.Fatalf("parseWindow(%q) err = %v, want ok=%v", c.in, err, c.ok)
		}
		if c.ok && (start != c.start || end != c.end) {
			t.Fatalf("parseWindow(%q) = %v, %v; want %v, %v", c.in, start, end, c.start, c.end)
		}
	}
}

func TestParseSpeedups(t *testing.T) {
	got, err := parseSpeedups("1, 2.5,8")
	if err != nil || len(got) != 3 || got[1] != 2.5 {
		t.Fatalf("parseSpeedups = %v, %v", got, err)
	}
	if s, err := parseSpeedups(""); err != nil || s != nil {
		t.Fatalf("empty = %v, %v", s, err)
	}
	for _, bad := range []string{"x", "1,-2", "0"} {
		if _, err := parseSpeedups(bad); err == nil {
			t.Fatalf("parseSpeedups(%q) accepted", bad)
		}
	}
}

// TestReplayCommandDeterministic is the acceptance check end to end:
// two runs of `gridbench -exp replay` on the checked-in GWF
// fixture produce byte-identical BENCH_replay.json files and event
// logs, and the log passes the -exp checktrace invariants.
func TestReplayCommandDeterministic(t *testing.T) {
	dir := t.TempDir()
	out1 := filepath.Join(dir, "r1.json")
	out2 := filepath.Join(dir, "r2.json")
	tr1 := filepath.Join(dir, "t1.jsonl")
	tr2 := filepath.Join(dir, "t2.jsonl")
	if err := replay(replayOpts{trace: gwfFixture, out: out1, traceout: tr1, seed: 2006}); err != nil {
		t.Fatal(err)
	}
	if err := replay(replayOpts{trace: gwfFixture, out: out2, traceout: tr2, seed: 2006}); err != nil {
		t.Fatal(err)
	}
	j1, err := os.ReadFile(out1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("BENCH_replay.json not byte-identical across runs:\n%s\n---\n%s", j1, j2)
	}
	l1, err := os.ReadFile(tr1)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := os.ReadFile(tr2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(l1, l2) {
		t.Fatal("event logs not byte-identical across runs")
	}
	if err := checktrace(tr1, filepath.Join(dir, "chrome.json")); err != nil {
		t.Fatalf("checktrace rejected the replay log: %v", err)
	}
}

func TestReplayCommandWindowAndSWF(t *testing.T) {
	dir := t.TempDir()
	if err := replay(replayOpts{trace: swfFixture, out: filepath.Join(dir, "swf.json"), window: "0:1", seed: 1}); err != nil {
		t.Fatal(err)
	}
}

// The -synth path generates, replays and reports the dropped-record
// count and throughput fields; a repeat run is byte-identical (the
// deterministic-archive acceptance property).
func TestReplayCommandSynth(t *testing.T) {
	dir := t.TempDir()
	out1 := filepath.Join(dir, "s1.json")
	out2 := filepath.Join(dir, "s2.json")
	opts := replayOpts{synth: 300, out: out1, speedups: "1,4", seed: 5}
	if err := replay(opts); err != nil {
		t.Fatal(err)
	}
	opts.out = out2
	if err := replay(opts); err != nil {
		t.Fatal(err)
	}
	j1, _ := os.ReadFile(out1)
	j2, _ := os.ReadFile(out2)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("synth replay not byte-identical across runs:\n%s\n---\n%s", j1, j2)
	}
	var rep replayReport
	if err := json.Unmarshal(j1, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.UsableJobs != 300 || rep.DroppedRecords != 0 {
		t.Fatalf("usable=%d dropped=%d, want 300/0", rep.UsableJobs, rep.DroppedRecords)
	}
	if rep.Sites != 8 || rep.NodesPerSite != 16 {
		t.Fatalf("grid %dx%d, want synth default 8x16", rep.Sites, rep.NodesPerSite)
	}
	if len(rep.Points) != 2 || rep.Points[0].SimJobsPerSec <= 0 {
		t.Fatalf("points %+v", rep.Points)
	}
	if bytes.Contains(j1, []byte("wall")) {
		t.Fatalf("the report carries a wall-clock field:\n%s", j1)
	}
}

// The throughput gate passes against a self-baseline and fails when
// the baseline claims far higher throughput.
func TestReplayCommandBaselineGate(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "r.json")
	opts := replayOpts{synth: 200, out: out, speedups: "1", seed: 9, tolerance: 0.25}
	if err := replay(opts); err != nil {
		t.Fatal(err)
	}
	opts.baseline = out
	opts.out = filepath.Join(dir, "r2.json")
	if err := replay(opts); err != nil {
		t.Fatalf("self-comparison regressed: %v", err)
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep replayReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	for i := range rep.Points {
		rep.Points[i].SimJobsPerSec *= 100
	}
	inflated, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "inflated.json")
	if err := os.WriteFile(bad, inflated, 0o644); err != nil {
		t.Fatal(err)
	}
	opts.baseline = bad
	opts.out = filepath.Join(dir, "r3.json")
	err = replay(opts)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("inflated baseline not flagged: %v", err)
	}
}

func TestReplayCommandErrors(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.json")
	if err := replay(replayOpts{out: out, seed: 1}); err == nil {
		t.Fatal("missing -trace accepted")
	}
	if err := replay(replayOpts{trace: gwfFixture, out: out, window: "nonsense", seed: 1}); err == nil {
		t.Fatal("bad -window accepted")
	}
	if err := replay(replayOpts{trace: filepath.Join(dir, "absent.gwf"), out: out, seed: 1}); err == nil {
		t.Fatal("missing trace file accepted")
	}
	if err := replay(replayOpts{trace: gwfFixture, synth: 10, out: out, seed: 1}); err == nil {
		t.Fatal("-trace with -synth accepted")
	}
	if err := replay(replayOpts{trace: gwfFixture, out: out, speedups: "zero", seed: 1}); err == nil {
		t.Fatal("bad -speedups accepted")
	}
}
