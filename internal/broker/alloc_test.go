package broker

import (
	"testing"
	"time"

	"crossbroker/internal/jdl"
)

// lifecycleAllocs is the average allocation count of one job's whole
// life on g, from Submit to Done: matchmaking, the placement and its
// run, the release. The job reuses one description, so the count is
// the broker's own and the engine's beneath it.
func lifecycleAllocs(t *testing.T, g *grid, req Request) float64 {
	t.Helper()
	run := func() {
		h, err := g.b.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		g.sim.RunFor(15 * time.Minute)
		if h.State() != Done {
			t.Fatalf("job %v: %v", h.State(), h.Err())
		}
	}
	run() // warm-up: pools, free lists and the sites' first publishes
	return testing.AllocsPerRun(50, run)
}

// TestLifecycleAllocs holds a batch job's and a shared-VM job's whole
// life to a ceiling. The counts include the grid's background work
// over the job's fifteen simulated minutes (publishes, fair-share
// updates). Measured 159 and 99; an AfterFunc that stops inlining
// (its Timer boxed on every call) takes them to 201 and 133.
func TestLifecycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const batchCeiling, sharedCeiling = 165, 105
	g := newGrid(t, 4, 4, Config{Seed: 1})
	if got := lifecycleAllocs(t, g, batchJob(time.Second)); got > batchCeiling {
		t.Errorf("batch job lifecycle: %v allocations, ceiling %d", got, batchCeiling)
	}

	// A standing agent for the shared path: a long batch job with its
	// agent.
	if _, err := g.b.Submit(batchJob(1000 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	g.sim.RunFor(10 * time.Minute)
	if g.b.FreeAgents() == 0 {
		t.Fatal("no free agent for the shared path")
	}
	if got := lifecycleAllocs(t, g, interactiveJob(jdl.SharedAccess, 10, 1)); got > sharedCeiling {
		t.Errorf("shared-VM job lifecycle: %v allocations, ceiling %d", got, sharedCeiling)
	}
}
