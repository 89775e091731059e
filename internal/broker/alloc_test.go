package broker

import (
	"testing"
	"time"

	"crossbroker/internal/jdl"
	"crossbroker/internal/netsim"
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

// TestLifecycleAllocs holds a batch job's, an exclusive interactive
// job's and a shared-VM job's whole life to a ceiling. The counts
// include the grid's background work over the job's fifteen simulated
// minutes (publishes, fair-share updates). Measured 120, 96 and 67. With
// batch and shared at 128 and 68, a publish tick that builds and
// compares the whole record again (two allocations a tick instead of
// one) measured 158 and 98, and an AfterFunc that stops inlining (its
// Timer boxed on every call) took those to 201 and 133.
func TestLifecycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const batchCeiling, exclusiveCeiling, sharedCeiling = 134, 100, 74
	g := newGrid(t, 4, 4, Config{Seed: 1})
	if got := lifecycleAllocs(t, g, batchJob(time.Second)); got > batchCeiling {
		t.Errorf("batch job lifecycle: %v allocations, ceiling %d", got, batchCeiling)
	}
	if got := lifecycleAllocs(t, g, interactiveJob(jdl.ExclusiveAccess, 0, 1)); got > exclusiveCeiling {
		t.Errorf("exclusive interactive job lifecycle: %v allocations, ceiling %d", got, exclusiveCeiling)
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

// TestPollHandoffAllocs runs bursts of W concurrent passes over a
// logged, linked index. The passes must poll in arrival order, and a
// burst's allocations must grow linearly in W: a finished poll wakes
// only the next queued pass. Waking every queued pass, all but one of
// which re-queue, costs Θ(W²), and W=128 then costs over 6× W=32.
func TestPollHandoffAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	job := equivJob(t)
	burst := func(w int) float64 {
		sim, b, info := deltaGrid(Config{Seed: 1, TopK: 1}, 8, 64)
		info.SetShardLink(netsim.WideArea())
		discovery := make([]time.Duration, w)
		run := func() {
			clear(discovery)
			for i := range discovery {
				b.SelectionPassStatsAsync(job, func(ps PassStats) { discovery[i] = ps.Discovery })
			}
			sim.RunFor(time.Minute)
			for i, d := range discovery {
				if d == 0 || i > 0 && d <= discovery[i-1] {
					t.Fatalf("W=%d: pass %d polled out of arrival order: discovery %v", w, i, discovery)
				}
			}
		}
		run() // warm-up: the first poll's catch-up, pools and free lists
		return testing.AllocsPerRun(5, run)
	}
	small, large := burst(32), burst(128)
	if large >= 6*small {
		t.Errorf("a burst of 128 passes cost %v allocations, %.1f× the %v of 32: the poll hand-off is quadratic", large, large/small, small)
	}
}
