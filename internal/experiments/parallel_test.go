package experiments

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"crossbroker/internal/trace"
	"crossbroker/internal/workload"
)

func TestRunCellsOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 3, 0} {
		got, err := runCells(25, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 25 {
			t.Fatalf("workers=%d: %d results, want 25", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: cell %d = %d, want %d (results must merge in cell order)", workers, i, v, i*i)
			}
		}
	}
}

func TestRunCellsEmpty(t *testing.T) {
	got, err := runCells(0, 4, func(i int) (int, error) { return 0, nil })
	if got != nil || err != nil {
		t.Fatalf("empty run: %v, %v", got, err)
	}
}

func TestRunCellsLowestIndexError(t *testing.T) {
	err3 := errors.New("cell 3")
	err7 := errors.New("cell 7")
	_, err := runCells(10, 8, func(i int) (int, error) {
		switch i {
		case 3:
			return 0, err3
		case 7:
			return 0, err7
		}
		return i, nil
	})
	if !errors.Is(err, err3) {
		t.Fatalf("got %v, want the lowest-indexed cell error %v", err, err3)
	}
}

func TestRunCellsSerialFailsFast(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("boom")
	_, err := runCells(10, 1, func(i int) (int, error) {
		calls.Add(1)
		if i == 2 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("serial run invoked %d cells after the failure, want fail-fast (3 calls)", got)
	}
}

// withProcs runs f with GOMAXPROCS set to procs, which sets the
// worker count of every experiment that sizes its pool by GOMAXPROCS.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestTableIByteIdenticalAcrossWorkers is the determinism acceptance
// test for Table I: the rendered table must be byte-identical whatever
// the worker count, because each run cell derives its seed from the
// run index alone and results merge in run order. TableI sizes its
// pool by GOMAXPROCS, so the worker count is set through it.
func TestTableIByteIdenticalAcrossWorkers(t *testing.T) {
	render := func(procs int) (out string) {
		withProcs(procs, func() {
			rows, err := TableI(TableIConfig{Runs: 4, Scenario: Campus, Seed: 2006})
			if err != nil {
				t.Fatal(err)
			}
			out = RenderTableI(Campus, rows)
		})
		return out
	}
	serial := render(1)
	for _, procs := range []int{2, 4} {
		if got := render(procs); got != serial {
			t.Fatalf("GOMAXPROCS=%d output differs from serial:\n%s\n--- vs ---\n%s", procs, got, serial)
		}
	}
	// And re-running the serial case reproduces itself exactly.
	if again := render(1); again != serial {
		t.Fatalf("serial rerun differs:\n%s\n--- vs ---\n%s", again, serial)
	}
}

func TestLoadSweepDeterministicAcrossWorkers(t *testing.T) {
	render := func(procs int) (out string) {
		withProcs(procs, func() {
			pts, err := LoadSweep([]float64{0, 1.0}, 7)
			if err != nil {
				t.Fatal(err)
			}
			out = RenderLoadSweep(pts)
		})
		return out
	}
	serial := render(1)
	if got := render(4); got != serial {
		t.Fatalf("parallel load sweep differs from serial:\n%s\n--- vs ---\n%s", got, serial)
	}
}

// TestReplaySweepByteIdenticalAcrossWorkers is the determinism
// acceptance test: the rendered sweep, its points and every point's
// event log must be byte-identical whatever the worker count, because
// each point derives everything from the configuration alone and
// results merge in point order.
func TestReplaySweepByteIdenticalAcrossWorkers(t *testing.T) {
	run := func(workers int) (string, goldenHash) {
		pts, err := ReplaySweep(ReplayConfig{
			Source: fixtureSource("grid5000.gwf", workload.ReplayConfig{}), Seed: 2006,
			Speedups: []float64{1, 2, 4}, Workers: workers, Traced: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return RenderReplay(pts), hashRun(t, pts, tracesOf(pts, func(p ReplayPoint) trace.Trace { return p.Trace }))
	}
	serial, serialHash := run(1)
	for _, workers := range []int{2, 4, 0} {
		got, hash := run(workers)
		if got != serial {
			t.Fatalf("workers=%d output differs from serial:\n%s\n--- vs ---\n%s", workers, got, serial)
		}
		if hash != serialHash {
			t.Fatalf("workers=%d hashes %+v, serial %+v", workers, hash, serialHash)
		}
	}
}
