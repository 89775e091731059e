package workload

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// randomTraceJobs builds a deterministic pseudo-random trace spanning
// roughly the given number of hours, with heavy-tailed-ish runtimes
// and mixed widths, submitted out of order to exercise sorting.
func randomTraceJobs(seed int64, n int, hours float64) []TraceJob {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]TraceJob, n)
	for i := range jobs {
		jobs[i] = TraceJob{
			ID:      int64(i + 1),
			Submit:  time.Duration(rng.Int63n(int64(hours * float64(time.Hour)))),
			Runtime: time.Duration(1+rng.Int63n(4*3600)) * time.Second,
			Nodes:   1 << rng.Intn(6),
			User:    traceUser(int64(rng.Intn(40))),
		}
	}
	return jobs
}

// Property: arrival times are monotonically non-decreasing — every
// inter-arrival delay the stream yields is >= 0, whatever the input
// order, window or speedup.
func TestReplayArrivalsMonotone(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		src := renderSWF(randomTraceJobs(seed, 300, 24))
		cfgs := []ReplayConfig{
			{},
			{Speedup: 3.7},
			{StartHour: 2, EndHour: 9},
			{StartHour: 1.5, EndHour: 22, Speedup: 0.25},
		}
		for _, cfg := range cfgs {
			got := streamSWF(t, src, cfg)
			if len(got) == 0 {
				t.Fatalf("seed %d cfg %+v: empty replay", seed, cfg)
			}
			for i, a := range got {
				if a.delay < 0 {
					t.Fatalf("seed %d cfg %+v: delay %d is %v", seed, cfg, i, a.delay)
				}
			}
		}
	}
}

// Property: window-slicing conserves jobs — partitioning the trace
// horizon into adjacent [N,M) windows yields exactly the jobs of the
// full window, with none lost or duplicated at the boundaries.
func TestReplayWindowPartitionConservesJobs(t *testing.T) {
	partitions := [][2]float64{{0, 3}, {3, 6}, {6, 11.5}, {11.5, 24}}
	for seed := int64(1); seed <= 20; seed++ {
		src := renderSWF(randomTraceJobs(seed, 400, 24))
		full := streamSWF(t, src, ReplayConfig{StartHour: 0, EndHour: 24})
		seen := map[int64]bool{}
		total := 0
		for _, p := range partitions {
			for _, a := range streamSWF(t, src, ReplayConfig{StartHour: p[0], EndHour: p[1]}) {
				if seen[a.job.TraceID] {
					t.Fatalf("seed %d: job %d appears in two partitions", seed, a.job.TraceID)
				}
				seen[a.job.TraceID] = true
				total++
			}
		}
		if total != len(full) {
			t.Fatalf("seed %d: partitions hold %d jobs, full window %d", seed, total, len(full))
		}
		for _, a := range full {
			if !seen[a.job.TraceID] {
				t.Fatalf("seed %d: job %d lost by partitioning", seed, a.job.TraceID)
			}
		}
	}
}

// Property: time-scaling by S scales every inter-arrival gap by
// exactly 1/S on the sim clock — the scaled stream's delays equal
// scaleGap applied to the unscaled stream's delays, gap by gap.
func TestReplaySpeedupScalesEveryGap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		src := renderSWF(randomTraceJobs(seed, 250, 24))
		base := streamSWF(t, src, ReplayConfig{})
		for _, s := range []float64{0.5, 1, 2, 7.25, 60} {
			scaled := streamSWF(t, src, ReplayConfig{Speedup: s})
			if len(scaled) != len(base) {
				t.Fatalf("seed %d S=%v: %d delays vs %d", seed, s, len(scaled), len(base))
			}
			for i := range base {
				if want := scaleGap(base[i].delay, s); scaled[i].delay != want {
					t.Fatalf("seed %d S=%v gap %d: %v, want %v (unscaled %v)",
						seed, s, i, scaled[i].delay, want, base[i].delay)
				}
				// Scaling must not change the jobs themselves.
				if scaled[i].job != base[i].job {
					t.Fatalf("seed %d S=%v: job %d mutated by scaling", seed, s, i)
				}
			}
		}
	}
}

func TestReplayConfigValidation(t *testing.T) {
	src := renderSWF(randomTraceJobs(1, 10, 24))
	reader := func() *TraceReader { return newTraceReader(strings.NewReader(src), FormatSWF, TraceReaderOptions{}) }
	bad := []ReplayConfig{
		{Speedup: -1},
		{Speedup: math.NaN()},
		{Speedup: math.Inf(1)},
		{StartHour: -2},
		{StartHour: 5, EndHour: 5},
		{StartHour: 7, EndHour: 2},
	}
	for _, cfg := range bad {
		if _, err := NewStreamReplay(reader(), cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
	// An empty window selection is not an error — just an empty stream.
	if got := streamSWF(t, src, ReplayConfig{StartHour: 500, EndHour: 501}); len(got) != 0 {
		t.Fatalf("%d jobs in an empty window", len(got))
	}
}

// Classification tags jobs of at most 10 minutes on at most 4 nodes
// interactive with a PerformanceLoss of 10 and everything else batch.
// A stream is rewound by reopening it, as each sweep point does: a
// second stream over the same source yields the same sequence.
func TestReplayClassificationAndReset(t *testing.T) {
	src := renderSWF([]TraceJob{
		{ID: 1, Submit: 0, Runtime: 5 * time.Minute, Nodes: 1, User: traceUser(1)},
		{ID: 2, Submit: time.Minute, Runtime: 5 * time.Hour, Nodes: 1, User: traceUser(1)},
		{ID: 3, Submit: 2 * time.Minute, Runtime: 5 * time.Minute, Nodes: 64, User: traceUser(1)},
		{ID: 4, Submit: 3 * time.Minute, Runtime: 10 * time.Minute, Nodes: 4, User: traceUser(1)},
		{ID: 5, Submit: 4 * time.Minute, Runtime: 10*time.Minute + time.Second, Nodes: 1, User: traceUser(1)},
		{ID: 6, Submit: 5 * time.Minute, Runtime: time.Minute, Nodes: 5, User: traceUser(1)},
	})
	got := streamSWF(t, src, ReplayConfig{})
	if len(got) != 6 {
		t.Fatalf("%d jobs, want 6", len(got))
	}
	for i, want := range []JobKind{InteractiveJob, BatchJob, BatchJob, InteractiveJob, BatchJob, BatchJob} {
		j := got[i].job
		wantPL := 0
		if want == InteractiveJob {
			wantPL = 10
		}
		if j.Kind != want || j.PerformanceLoss != wantPL {
			t.Fatalf("job %d (%v on %d nodes): kind %v PL %d, want %v PL %d",
				j.TraceID, j.CPU, j.Nodes, j.Kind, j.PerformanceLoss, want, wantPL)
		}
	}
	if again := streamSWF(t, src, ReplayConfig{}); len(again) != len(got) || again[2] != got[2] {
		t.Fatal("a reopened stream did not replay the same sequence")
	}
}

func TestScaleGapSaturates(t *testing.T) {
	if got := scaleGap(time.Hour, 1e-12); got != time.Duration(math.MaxInt64) {
		t.Fatalf("tiny speedup did not saturate: %v", got)
	}
	if got := scaleGap(0, 0.001); got != 0 {
		t.Fatalf("zero gap scaled to %v", got)
	}
}

func TestTraceUser(t *testing.T) {
	if got := traceUser(-1); got != "/O=Trace/CN=unknown" {
		t.Fatalf("traceUser(-1) = %q", got)
	}
	if got := traceUser(42); got != "/O=Trace/CN=user42" {
		t.Fatalf("traceUser(42) = %q", got)
	}
}

// OpenTraceReader picks the format by extension, case-insensitively.
func TestLoadTraceCaseInsensitiveExtension(t *testing.T) {
	dir := t.TempDir()
	src, err := os.ReadFile("testdata/ctc_sp2.swf")
	if err != nil {
		t.Fatal(err)
	}
	upper := filepath.Join(dir, "CTC_SP2.SWF")
	if err := os.WriteFile(upper, src, 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := OpenTraceReader(upper, TraceReaderOptions{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if jobs := drainTraceReader(t, tr); len(jobs) != 12 {
		t.Fatalf("%d jobs from .SWF, want 12", len(jobs))
	}
}
