package broker

import (
	"testing"
	"time"
	"unsafe"

	"crossbroker/internal/infosys"
	"crossbroker/internal/jdl"
	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
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
// minutes (publishes, fair-share updates). The ceilings are the counts
// measured once the shared attempt, the match pass and the gatekeeper's
// two-phase commit became records recycled through free lists, and
// Submit routed without a closure: 97, 71 and 40. Before, with those
// continuations bound once per attempt but the records made afresh,
// they measured 108, 82 and 53; with a closure or method value made per
// step, 119, 95 and 67. A queue-timeout wait (waitTrigger) whose timer
// is boxed in an interface measured 120 and 96 on that code, and a
// publish tick that builds and compares the whole record again (two
// allocations a tick instead of one) raised batch and shared by 30.
func TestLifecycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const batchCeiling, exclusiveCeiling, sharedCeiling = 97, 71, 40
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

// TestProbePassAllocs: a pass's direct probes cost nothing per site, so
// a pass that probes 16 sites allocates no more than one that probes 1.
// The walk runs on the recycled pass record and each site recycles its
// query records; a closure per probe on each side cost about two
// allocations per probed site.
func TestProbePassAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	job := batchJob(time.Second).Job
	pass := func(topK int) float64 {
		g := newGrid(t, 16, 4, Config{Seed: 1, TopK: topK})
		h := &Handle{request: Request{Job: job}}
		probed := 0
		cont := func(c []candidate) { probed = len(c) }
		run := func() {
			g.b.matchPass(h, cont)
			g.sim.RunFor(time.Minute)
		}
		run() // warm-up: pools, free lists and the sites' first publishes
		if probed != topK {
			t.Fatalf("TopK %d: %d sites probed and ranked", topK, probed)
		}
		return testing.AllocsPerRun(20, run)
	}
	one, all := pass(1), pass(16)
	if all > one {
		t.Errorf("a pass probing 16 sites: %v allocations, over the %v of one probing 1", all, one)
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

// TestBrokerQueueAllocs holds the broker queue to no allocation per
// retry. Every pass is stubbed to find the job's matching sites down,
// so each of the job's attempts is the queue's work alone: the
// re-queue, its backoff timer, the queue pass that wakes and the
// job's posted attempt. With a method value per re-queue, a closure
// per wake, one per retried job and the attempt's pass continuation
// made afresh, a retry cost four allocations.
func TestBrokerQueueAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sim := simclock.NewSim(time.Time{})
	b := New(Config{Sim: sim, Info: infosys.New(sim, 0), RetryInterval: time.Minute})
	passes := 0
	b.matchOracle = func(h *Handle, cont func([]candidate)) {
		passes++
		h.unavailable = 1 // matching sites, all down: hold the job and retry
		cont(nil)
	}
	for i := 0; i < 4; i++ {
		if _, err := b.Submit(batchJob(time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunFor(time.Hour) // warm-up: the queue's buffers and the engine's heap
	retries := 0
	allocs := testing.AllocsPerRun(1, func() {
		before := passes
		sim.RunFor(10 * time.Hour)
		retries = passes - before
	})
	if retries < 1000 {
		t.Fatalf("%d retries in ten hours, want one a minute for each of 4 jobs", retries)
	}
	if allocs != 0 {
		t.Errorf("%d retries cost %v allocations, want none", retries, allocs)
	}
}

// TestMatchRecordSizeBudget holds two per-site records to their size
// classes. A pass returns one 40-byte candidate per survivor, and the
// candidate reads its ordinal through its entry rather than carry one.
// Every registered site holds one entry: an entry that carried its
// name beside its ordinal moved from the 144- to the 176-byte class,
// and the 800-site replay's bytes per job rose where they now fall.
func TestMatchRecordSizeBudget(t *testing.T) {
	if got := unsafe.Sizeof(candidate{}); got > 40 {
		t.Errorf("candidate is %d bytes, budget 40", got)
	}
	if got := unsafe.Sizeof(siteEntry{}); got > 144 {
		t.Errorf("siteEntry is %d bytes, budget 144", got)
	}
}
