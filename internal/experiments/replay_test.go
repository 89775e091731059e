package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"crossbroker/internal/trace"
	"crossbroker/internal/workload"
)

// fixtureSource streams a workload fixture into the sweep the way
// gridbench does: a fresh reader per point, rcfg's window and rule with
// the point's speedup filled in.
func fixtureSource(name string, rcfg workload.ReplayConfig) func(float64) (workload.ReplayStream, error) {
	return func(speedup float64) (workload.ReplayStream, error) {
		tr, err := workload.OpenTraceReader("../workload/testdata/"+name, workload.TraceReaderOptions{})
		if err != nil {
			return nil, err
		}
		cfg := rcfg // points run concurrently: each gets its own copy
		cfg.Speedup = speedup
		return workload.NewStreamReplay(tr, cfg)
	}
}

func TestReplaySweepFixtureOutcomes(t *testing.T) {
	pts, err := ReplaySweep(ReplayConfig{Source: fixtureSource("grid5000.gwf", workload.ReplayConfig{}), Seed: 2006, Traced: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points, want 3 (default speedups)", len(pts))
	}
	for _, p := range pts {
		if p.Submitted != 9 || p.Interactive != 6 || p.Batch != 3 {
			t.Fatalf("speedup %g: submitted %d (%d inter, %d batch), want 9 (6, 3)",
				p.Speedup, p.Submitted, p.Interactive, p.Batch)
		}
		if p.Done+p.Failed+p.Pending != p.Submitted {
			t.Fatalf("speedup %g: outcomes do not partition submissions: %+v", p.Speedup, p)
		}
		if p.Pending != 0 {
			t.Fatalf("speedup %g: %d jobs still pending after drain", p.Speedup, p.Pending)
		}
		// The 16- and 32-wide recorded jobs exceed the default 8-node
		// sites.
		if p.CappedWidths != 2 {
			t.Fatalf("speedup %g: capped %d widths, want 2", p.Speedup, p.CappedWidths)
		}
		if p.Done > 0 && p.GoodputPct <= 0 {
			t.Fatalf("speedup %g: goodput %v with %d done", p.Speedup, p.GoodputPct, p.Done)
		}
		// The drained trace must satisfy the strict invariant set.
		if v := trace.CheckComplete(p.Trace.Events); len(v) != 0 {
			t.Fatalf("speedup %g: %d trace violations, first: %s", p.Speedup, len(v), v[0])
		}
	}
}

// TestReplaySweepDeterministic is the BENCH_replay.json acceptance
// property: same trace + same seed ⇒ byte-identical JSON and
// byte-identical event logs, run after run, whatever the worker
// count.
func TestReplaySweepDeterministic(t *testing.T) {
	src := fixtureSource("grid5000.gwf", workload.ReplayConfig{})
	run := func(workers int) ([]byte, []trace.Trace) {
		pts, err := ReplaySweep(ReplayConfig{Source: src, Seed: 7, Workers: workers, Traced: true})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(pts, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		traces := make([]trace.Trace, len(pts))
		for i, p := range pts {
			traces[i] = p.Trace
		}
		return data, traces
	}
	j1, t1 := run(0)
	j2, t2 := run(1)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("JSON diverged across runs:\n%s\n---\n%s", j1, j2)
	}
	var b1, b2 bytes.Buffer
	if err := trace.WriteJSONL(&b1, t1); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteJSONL(&b2, t2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("event logs diverged across runs")
	}
}

func TestReplaySweepSWFFixture(t *testing.T) {
	pts, err := ReplaySweep(ReplayConfig{
		Source: fixtureSource("ctc_sp2.swf", workload.ReplayConfig{}), Seed: 2006, Speedups: []float64{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := pts[0]
	if p.Submitted != 12 {
		t.Fatalf("submitted %d, want 12", p.Submitted)
	}
	if p.Done+p.Failed+p.Pending != p.Submitted || p.Pending != 0 {
		t.Fatalf("outcomes %+v", p)
	}
	if p.MeanTurnaroundH <= 0 {
		t.Fatalf("no batch turnaround measured: %+v", p)
	}
}

func TestReplaySweepWindowAndRule(t *testing.T) {
	// Hours 0..1 of the trace hold jobs 1-6 (submits 0..1800s).
	pts, err := ReplaySweep(ReplayConfig{
		Source: fixtureSource("grid5000.gwf", workload.ReplayConfig{
			StartHour: 0, EndHour: 1,
			Rule: workload.ClassifyRule{MaxRuntime: time.Minute, MaxNodes: 1},
		}),
		Speedups: []float64{1}, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := pts[0]
	if p.Submitted != 6 {
		t.Fatalf("window 0:1 submitted %d, want 6", p.Submitted)
	}
	// The tightened rule reclassifies everything as batch.
	if p.Interactive != 0 || p.Batch != 6 {
		t.Fatalf("rule override ignored: %d interactive, %d batch", p.Interactive, p.Batch)
	}
}

// A sweep fed by streamed ingest must produce byte-identical points to
// one fed workload.NewReplay over the materialized job slice — the
// streamed reader's in-memory reference — trace semantics included.
func TestReplaySweepStreamedMatchesMaterialized(t *testing.T) {
	jobs, err := workload.LoadTrace("../workload/testdata/grid5000.gwf", true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ReplayConfig{Seed: 11, Traced: true, Source: func(speedup float64) (workload.ReplayStream, error) {
		return workload.NewReplay(jobs, workload.ReplayConfig{Speedup: speedup})
	}}
	batch, err := ReplaySweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Source = fixtureSource("grid5000.gwf", workload.ReplayConfig{})
	streamed, err := ReplaySweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jb, _ := json.Marshal(batch)
	js, _ := json.Marshal(streamed)
	if !bytes.Equal(jb, js) {
		t.Fatalf("streamed sweep diverged from materialized:\n%s\n---\n%s", jb, js)
	}
	for i := range batch {
		if !bytes.Equal(traceJSON(t, batch[i].Trace), traceJSON(t, streamed[i].Trace)) {
			t.Fatalf("point %d: event logs diverged", i)
		}
	}
}

func traceJSON(t *testing.T, tr trace.Trace) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := trace.WriteJSONL(&b, []trace.Trace{tr}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestReplaySweepRejectsEmptyTrace(t *testing.T) {
	if _, err := ReplaySweep(ReplayConfig{}); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestRenderReplay(t *testing.T) {
	pts, err := ReplaySweep(ReplayConfig{
		Source: fixtureSource("grid5000.gwf", workload.ReplayConfig{}), Seed: 2006, Speedups: []float64{2},
	})
	if err != nil {
		t.Fatal(err)
	}
	table := RenderReplay(pts)
	for _, want := range []string{"Speedup", "Goodput", "Turnaround", "2", "9"} {
		if !strings.Contains(table, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, table)
		}
	}
}
