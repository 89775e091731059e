package broker

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"crossbroker/internal/batch"
	"crossbroker/internal/jdl"
	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
	"crossbroker/internal/site"
	"crossbroker/internal/trace"
)

// Test2PCAbortAtSite pins the two-phase-commit abort window at the
// site level: a site that dies after the LRM's phase-1 accept but
// before the phase-2 commit acknowledgment must abort the submission
// and leave no job behind.
func Test2PCAbortAtSite(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	// Zero middleware costs and a 500 ms one-way delay give a clean
	// timeline: phase-1 accept at t=1s, commit ack at t=2s.
	st := site.New(sim, site.Config{
		Name:     "s0",
		Nodes:    1,
		Network:  netsim.Profile{Name: "slow", OneWayDelay: 500 * time.Millisecond},
		LRMCycle: 10 * time.Second, // no pass before the crash
	})
	var err error
	returned := sim.NewTrigger()
	st.SubmitAsync(batch.Request{
		ID: "job-1", Owner: "u", Nodes: 1,
		RunCB: func(ctx *batch.ExecCtx, done func()) { ctx.Killed.WaitThen(done) },
	}, site.SubmitOptions{}, func(_ *batch.Handle, e error) {
		err = e
		returned.Fire()
	})
	sim.AfterFunc(1500*time.Millisecond, st.Crash) // inside the commit window
	sim.RunFor(time.Minute)

	if !returned.Fired() {
		t.Fatal("submission never returned")
	}
	if !errors.Is(err, site.ErrCommitAborted) {
		t.Fatalf("err = %v, want ErrCommitAborted", err)
	}
	st.Restart()
	sim.RunFor(time.Minute)
	if n := st.Queue().QueueLength() + st.Queue().RunningCount(); n != 0 {
		t.Fatalf("aborted job left %d jobs at the site", n)
	}
}

// TestCrashMidSubmissionNoDoubleAllocation sweeps a site crash across
// the whole submission window of an exclusive interactive job — from
// staging through phase-1 accept to the phase-2 commit — and asserts
// the recovery invariants at every offset: the job ends terminal, no
// lease outlives the run, and the crashed site hosts no ghost job
// after its restart (the "no double-allocation" invariant of DESIGN
// §6 under faults).
func TestCrashMidSubmissionNoDoubleAllocation(t *testing.T) {
	for off := 500 * time.Millisecond; off <= 12*time.Second; off += 500 * time.Millisecond {
		g := newGrid(t, 2, 1, Config{Deterministic: true})
		h, err := g.b.Submit(interactiveJob(jdl.ExclusiveAccess, 0, 1))
		if err != nil {
			t.Fatal(err)
		}
		g.sim.AfterFunc(off, g.sites[0].Crash)
		g.sim.AfterFunc(2*time.Minute, g.sites[0].Restart)
		g.sim.RunFor(30 * time.Minute)

		if !h.State().Terminal() {
			t.Fatalf("off=%v: job not terminal: %v", off, h.State())
		}
		if n := g.b.LeasedCPUs(); n != 0 {
			t.Fatalf("off=%v: %d leases leaked", off, n)
		}
		for _, st := range g.sites {
			if n := st.Queue().QueueLength() + st.Queue().RunningCount(); n != 0 {
				t.Fatalf("off=%v: %d ghost jobs at %s", off, n, st.Name())
			}
		}
	}
}

// TestSiteDeathReleasesLeases is the stale-lease fix: leases held
// against a site must be reclaimed the moment it dies, not at natural
// expiry.
func TestSiteDeathReleasesLeases(t *testing.T) {
	g := newGrid(t, 2, 4, Config{LeaseDuration: time.Hour})
	g.b.lease(&Handle{ID: "t1"}, "site00", 3)
	g.b.lease(&Handle{ID: "t2"}, "site01", 1)
	if n := g.b.LeasedCPUs(); n != 4 {
		t.Fatalf("LeasedCPUs = %d, want 4", n)
	}
	g.sites[0].Crash()
	if n := g.b.LeasedCPUs(); n != 1 {
		t.Fatalf("LeasedCPUs after crash = %d, want 1 (site01's)", n)
	}
	if qs := g.b.QuarantinedSites(); len(qs) != 1 || qs[0] != "site00" {
		t.Fatalf("QuarantinedSites = %v, want [site00]", qs)
	}
}

// TestQuarantineAndReadmission pins the breaker's constants: the
// third consecutive failure, not the second, trips it; the tripped
// site stays out of matchmaking for the whole five-minute cool-down,
// a job submitted meanwhile is held rather than failed, and once the
// cool-down is over the site is probed back in and serves the job.
func TestQuarantineAndReadmission(t *testing.T) {
	g := newGrid(t, 1, 2, Config{})
	g.sim.RunFor(time.Second) // first infosys publish

	for n := 1; n <= 3; n++ {
		if qs := g.b.QuarantinedSites(); len(qs) != 0 {
			t.Fatalf("quarantined after %d consecutive failures: %v", n-1, qs)
		}
		g.b.noteSiteFailure("site00")
	}
	tripped := g.sim.Now()
	if qs := g.b.QuarantinedSites(); len(qs) != 1 || qs[0] != "site00" {
		t.Fatalf("QuarantinedSites after 3 failures = %v, want [site00]", qs)
	}

	// A batch job submitted during the quarantine is held, not failed:
	// its matching site exists but is excluded.
	h, err := g.b.Submit(batchJob(10 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	g.sim.RunUntil(tripped.Add(5*time.Minute - time.Second))
	if h.State() == Failed {
		t.Fatalf("job failed during quarantine: %v", h.Err())
	}
	if h.State() != Pending || len(g.b.QuarantinedSites()) != 1 {
		t.Fatalf("site readmitted before the 5 min cool-down: job %v, quarantined %v", h.State(), g.b.QuarantinedSites())
	}
	g.sim.RunUntil(tripped.Add(5 * time.Minute))
	if qs := g.b.QuarantinedSites(); len(qs) != 0 {
		t.Fatalf("QuarantinedSites at the end of the cool-down = %v, want none", qs)
	}
	// After the cool-down the site is probed again and the job runs.
	g.sim.RunFor(10 * time.Minute)
	if h.State() != Done {
		t.Fatalf("job after readmission: %v err=%v", h.State(), h.Err())
	}
	if len(g.b.QuarantinedSites()) != 0 {
		t.Fatal("site still quarantined after successful run")
	}
}

// TestRetryBackoffPacing checks the capped exponential dispatch
// delays and that the default configuration reproduces the original
// fixed pacing.
func TestRetryBackoffPacing(t *testing.T) {
	g := newGrid(t, 1, 1, Config{
		RetryInterval: 30 * time.Second,
		RetryBackoff:  2,
	})
	want := []time.Duration{
		30 * time.Second, 60 * time.Second, 120 * time.Second, 240 * time.Second,
		480 * time.Second, 480 * time.Second, // capped at 16×30s
	}
	for n, w := range want {
		if d := g.b.retryDelay(n); d != w {
			t.Fatalf("retryDelay(%d) = %v, want %v", n, d, w)
		}
	}

	fixed := newGrid(t, 1, 1, Config{RetryInterval: 30 * time.Second})
	for n := 0; n < 6; n++ {
		if d := fixed.b.retryDelay(n); d != 30*time.Second {
			t.Fatalf("default retryDelay(%d) = %v, want fixed 30s", n, d)
		}
	}
}

// TestAgentDeathResubmitsSharedJob: killing the glide-in hosting a
// shared-mode interactive job is detected via the heartbeat and the
// job is kill-and-resubmitted to a fresh agent, completing with a
// recorded resubmission.
func TestAgentDeathResubmitsSharedJob(t *testing.T) {
	g := newGrid(t, 1, 2, Config{AgentHeartbeat: 5 * time.Second})
	req := interactiveJob(jdl.SharedAccess, 50, 1)
	req.CPU = 4 * time.Minute
	h, err := g.b.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the hosting agent once the job is well into its run.
	g.sim.AfterFunc(2*time.Minute, func() {
		if !g.b.KillAgentAt("site00") {
			t.Error("no agent to kill at site00")
		}
	})
	g.sim.RunFor(time.Hour)
	if h.State() != Done {
		t.Fatalf("state = %v err = %v", h.State(), h.Err())
	}
	if h.Resubmissions() == 0 {
		t.Fatal("agent death did not count a resubmission")
	}
	if n := g.b.LeasedCPUs(); n != 0 {
		t.Fatalf("%d leases leaked", n)
	}
}

// TestResubmittedBatchKeepsSubmissionPhase: a batch job whose agent
// dies after the first output reached the user is resubmitted, and the
// later attempt leaves the submission phase the first output measured.
func TestResubmittedBatchKeepsSubmissionPhase(t *testing.T) {
	g := newGrid(t, 2, 1, Config{})
	h, err := g.b.Submit(batchJob(10 * time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	var atKill time.Duration
	g.sim.AfterFunc(3*time.Minute, func() {
		if !h.FirstOutput.Fired() {
			t.Error("no first output before the agent died")
		}
		atKill = h.Phases.Submission
		if !g.b.KillAgentAt(h.Site()) {
			t.Errorf("no agent to kill at %s", h.Site())
		}
	})
	g.sim.RunFor(2 * time.Hour)
	if h.State() != Done || h.Resubmissions() != 1 {
		t.Fatalf("state = %v after %d resubmissions (err %v), want done after 1", h.State(), h.Resubmissions(), h.Err())
	}
	if atKill <= 0 || h.Phases.Submission != atKill {
		t.Fatalf("Phases.Submission = %v at the end, %v when the agent died; want the first output's, unchanged", h.Phases.Submission, atKill)
	}
}

// TestQueuedAgentKillResubmitsBatch: killing a glide-in whose LRM job
// is still queued resubmits the batch job, and the dead agent's job
// leaves the LRM queue with it: started later, its body would run the
// payload on the VM the released agent had already closed, and its
// Started callback would mark the resubmitted job running.
func TestQueuedAgentKillResubmitsBatch(t *testing.T) {
	g, tr := tracedGrid(t, 1, 1, Config{Deterministic: true})
	holder := interactiveJob(jdl.ExclusiveAccess, 0, 1)
	holder.CPU = 5 * time.Minute
	if _, err := g.b.Submit(holder); err != nil {
		t.Fatal(err)
	}
	var h *Handle
	g.sim.AfterFunc(time.Minute, func() {
		var err error
		if h, err = g.b.Submit(batchJob(10 * time.Minute)); err != nil {
			t.Error(err)
		}
	})
	g.sim.AfterFunc(2*time.Minute, func() {
		if n := g.sites[0].Queue().QueueLength(); n != 1 {
			t.Errorf("LRM queue holds %d jobs at the kill, want the batch job's agent", n)
		}
		if !g.b.KillAgentAt("site00") {
			t.Error("no agent to kill at site00")
		}
	})
	g.sim.RunFor(2 * time.Hour)
	if h.State() != Done || h.Resubmissions() != 1 {
		t.Fatalf("state = %v after %d resubmissions (err %v), want done after 1", h.State(), h.Resubmissions(), h.Err())
	}
	started := 0
	for _, e := range tr.Events() {
		if e.Job == h.ID && e.Kind == trace.Started {
			started++
		}
	}
	if started != 1 {
		t.Fatalf("%d Started events for %s, want 1", started, h.ID)
	}
}

// TestMaxResubmitsTerminalAbort drives a job of each attempt kind
// through repeated failures until it exhausts a budget of one
// resubmission. The second failure spends the budget, so every job
// ends Failed after two resubmissions with ErrMaxResubmits, and the
// error names the last attempt's cause. A queue timeout records no
// cause, because the job never ran, so the exclusive row's error
// names none.
func TestMaxResubmitsTerminalAbort(t *testing.T) {
	// Crash the site (briefly) twice while the job runs: the first
	// loss consumes the budget, the second, once the cool-down has let
	// the job back onto the site, exceeds it.
	crashTwice := func(t *testing.T, g *grid) {
		for _, at := range []time.Duration{2 * time.Minute, 12 * time.Minute} {
			g.sim.AfterFunc(at, g.sites[0].Crash)
			g.sim.AfterFunc(at+10*time.Second, g.sites[0].Restart)
		}
	}
	for _, c := range []struct {
		name         string
		sites, nodes int
		req          func() Request
		faults       func(t *testing.T, g *grid)
		want         string
	}{
		{
			name: "single-node batch, agent lost with its site", sites: 1, nodes: 1,
			req:    func() Request { return batchJob(20 * time.Minute) },
			faults: crashTwice,
			want:   fmt.Sprintf("%v (2 resubmissions): %v: payload on site00 unfinished", ErrMaxResubmits, ErrAgentLost),
		},
		{
			name: "parallel batch, site lost", sites: 1, nodes: 2,
			req: func() Request {
				r := batchJob(20 * time.Minute)
				r.Job.NodeNumber, r.Job.Flavor = 2, jdl.MPICHP4
				return r
			},
			faults: crashTwice,
			want:   fmt.Sprintf("%v (2 resubmissions): %v: site00 died running cb-000001", ErrMaxResubmits, ErrSiteLost),
		},
		{
			name: "exclusive interactive, queue timeouts", sites: 3, nodes: 1,
			req: func() Request { return interactiveJob(jdl.ExclusiveAccess, 0, 1) },
			// A local job reaches every LRM queue before the broker's
			// submission does: the probes still see the node free, and
			// each attempt then sits in the queue until it times out.
			faults: func(t *testing.T, g *grid) {
				for _, st := range g.sites {
					if _, err := st.Queue().Submit(batch.Request{ID: "local", Nodes: 1, RunCB: holdCB(time.Hour)}); err != nil {
						t.Fatal(err)
					}
				}
			},
			want: fmt.Sprintf("%v (2 resubmissions)", ErrMaxResubmits),
		},
		{
			name: "shared interactive, agent deaths", sites: 1, nodes: 2,
			req: func() Request {
				r := interactiveJob(jdl.SharedAccess, 50, 1)
				r.CPU = 30 * time.Minute
				return r
			},
			faults: func(t *testing.T, g *grid) {
				for _, at := range []time.Duration{2 * time.Minute, 10 * time.Minute} {
					g.sim.AfterFunc(at, func() {
						if !g.b.KillAgentAt("site00") {
							t.Error("no agent to kill at site00")
						}
					})
				}
			},
			want: fmt.Sprintf("%v (2 resubmissions): %v while running cb-000001", ErrMaxResubmits, ErrAgentLost),
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := newGrid(t, c.sites, c.nodes, Config{MaxResubmits: 1, AgentHeartbeat: 5 * time.Second})
			c.faults(t, g)
			h, err := g.b.Submit(c.req())
			if err != nil {
				t.Fatal(err)
			}
			g.sim.RunFor(2 * time.Hour)
			if h.State() != Failed || !errors.Is(h.Err(), ErrMaxResubmits) {
				t.Fatalf("state %v, err %v; want Failed with %v", h.State(), h.Err(), ErrMaxResubmits)
			}
			if h.Resubmissions() != 2 {
				t.Errorf("%d resubmissions, want 2", h.Resubmissions())
			}
			if got := h.Err().Error(); got != c.want {
				t.Errorf("err %q, want %q", got, c.want)
			}
			if n := g.b.LeasedCPUs(); n != 0 {
				t.Errorf("%d leases leaked", n)
			}
		})
	}
}

// TestAbortKillsRunningExclusiveJob: Broker.Abort on a running
// exclusive job kills it at the LRM and surfaces the reason.
func TestAbortKillsRunningExclusiveJob(t *testing.T) {
	g := newGrid(t, 1, 1, Config{})
	reason := errors.New("console: link gave up")
	req := interactiveJob(jdl.ExclusiveAccess, 0, 1)
	req.CPU = 30 * time.Minute
	h, err := g.b.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	g.sim.AfterFunc(5*time.Minute, func() { g.b.Abort(h, reason) })
	g.sim.RunFor(time.Hour)
	if h.State() != Failed {
		t.Fatalf("state = %v, want Failed", h.State())
	}
	if !errors.Is(h.Err(), reason) {
		t.Fatalf("err = %v, want the abort reason", h.Err())
	}
	if n := g.sites[0].Queue().RunningCount(); n != 0 {
		t.Fatalf("%d jobs still running after abort", n)
	}
	if n := g.b.LeasedCPUs(); n != 0 {
		t.Fatalf("%d leases leaked", n)
	}
}

// TestGatekeeperStallResubmitsElsewhere: a wedged gatekeeper times
// the submission out, the failure quarantines the site, and the
// retried job completes on the healthy one. Two earlier failures are
// on record, so the timeout is the third in a row and trips the
// breaker.
func TestGatekeeperStallResubmitsElsewhere(t *testing.T) {
	g := newGrid(t, 2, 1, Config{Deterministic: true})
	g.b.noteSiteFailure("site00")
	g.b.noteSiteFailure("site00")
	g.sites[0].StallGatekeeper(2 * time.Minute)
	h, err := g.b.Submit(batchJob(10 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	g.sim.RunFor(time.Hour)
	if h.State() != Done {
		t.Fatalf("state = %v err = %v", h.State(), h.Err())
	}
	if h.Site() != "site01" {
		t.Fatalf("ran on %s, want the healthy site01", h.Site())
	}
	if h.Resubmissions() == 0 {
		t.Fatal("stall timeout did not count a resubmission")
	}
}

// TestExclusiveOnDownGridHasNoResources: an exclusive interactive job
// whose only matching site is quarantined fails because the grid is
// down (ErrNoResources), not because nothing matches; with no site
// registered at all it still fails with ErrNoMatch.
func TestExclusiveOnDownGridHasNoResources(t *testing.T) {
	for _, c := range []struct {
		name  string
		sites int
		want  error
	}{
		{"only matching site quarantined", 1, ErrNoResources},
		{"empty registry", 0, ErrNoMatch},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := newGrid(t, c.sites, 1, Config{})
			for _, st := range g.sites {
				g.b.quarantineNow(st.Name())
			}
			h, err := g.b.Submit(interactiveJob(jdl.ExclusiveAccess, 0, 1))
			if err != nil {
				t.Fatal(err)
			}
			g.sim.RunFor(time.Minute)
			if h.State() != Failed || !errors.Is(h.Err(), c.want) {
				t.Fatalf("state %v, err %v; want Failed with %v", h.State(), h.Err(), c.want)
			}
		})
	}
}
