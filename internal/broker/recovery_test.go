package broker

import (
	"errors"
	"testing"
	"time"

	"crossbroker/internal/batch"
	"crossbroker/internal/jdl"
	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
	"crossbroker/internal/site"
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

		if h.State() != Done && h.State() != Failed {
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

// TestUnregisterSiteReleasesLeases covers the site-removed-from-
// infosys flavor of the stale-lease leak.
func TestUnregisterSiteReleasesLeases(t *testing.T) {
	g := newGrid(t, 2, 4, Config{LeaseDuration: time.Hour})
	g.b.lease(&Handle{ID: "t1"}, "site00", 2)
	g.b.UnregisterSite("site00")
	if n := g.b.LeasedCPUs(); n != 0 {
		t.Fatalf("LeasedCPUs after unregister = %d, want 0", n)
	}
	g.sim.RunFor(time.Second)
	if g.info.Len() != 1 {
		t.Fatalf("infosys still has %d records, want 1", g.info.Len())
	}
}

// TestQuarantineAndReadmission: consecutive submission failures trip
// the breaker, the site disappears from matchmaking, and after the
// cool-down it is probed back in and serves jobs again.
func TestQuarantineAndReadmission(t *testing.T) {
	g := newGrid(t, 1, 2, Config{
		QuarantineThreshold: 2,
		QuarantineCooldown:  5 * time.Minute,
	})
	g.sim.RunFor(time.Second) // first infosys publish

	// Crash the only site: death notification quarantines it at once.
	g.sites[0].Crash()
	if qs := g.b.QuarantinedSites(); len(qs) != 1 {
		t.Fatalf("QuarantinedSites = %v, want [site00]", qs)
	}
	g.sim.AfterFunc(time.Minute, g.sites[0].Restart)

	// A batch job submitted during the quarantine is held, not failed:
	// its matching site exists but is excluded.
	h, err := g.b.Submit(batchJob(10 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	g.sim.RunFor(4 * time.Minute) // restart done, cool-down not yet over
	if h.State() == Failed {
		t.Fatalf("job failed during quarantine: %v", h.Err())
	}
	if len(g.b.QuarantinedSites()) != 1 {
		t.Fatal("site readmitted before cool-down")
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

	// Jitter is seeded: two brokers with the same seed draw the same
	// delays; the jittered delay stays within [d, d*(1+jitter)).
	j1 := newGrid(t, 1, 1, Config{Seed: 9, RetryInterval: 30 * time.Second, RetryJitter: 0.5})
	j2 := newGrid(t, 1, 1, Config{Seed: 9, RetryInterval: 30 * time.Second, RetryJitter: 0.5})
	for n := 0; n < 4; n++ {
		d1, d2 := j1.b.retryDelay(n), j2.b.retryDelay(n)
		if d1 != d2 {
			t.Fatalf("same-seed jitter diverged: %v vs %v", d1, d2)
		}
		if d1 < 30*time.Second || d1 >= 45*time.Second {
			t.Fatalf("jittered delay %v outside [30s,45s)", d1)
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

// TestMaxResubmitsTerminalAbort: a batch job whose site keeps dying
// under it exhausts Config.MaxResubmits and fails terminally with the
// reason surfaced.
func TestMaxResubmitsTerminalAbort(t *testing.T) {
	g := newGrid(t, 1, 1, Config{
		MaxResubmits:       1,
		QuarantineCooldown: 30 * time.Second,
	})
	h, err := g.b.Submit(batchJob(20 * time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	// Crash the site (briefly) twice while the payload runs: first
	// loss consumes the budget, second exceeds it.
	for _, at := range []time.Duration{2 * time.Minute, 6 * time.Minute} {
		at := at
		g.sim.AfterFunc(at, g.sites[0].Crash)
		g.sim.AfterFunc(at+10*time.Second, g.sites[0].Restart)
	}
	g.sim.RunFor(time.Hour)
	if h.State() != Failed {
		t.Fatalf("state = %v, want Failed", h.State())
	}
	if !errors.Is(h.Err(), ErrMaxResubmits) {
		t.Fatalf("err = %v, want ErrMaxResubmits", h.Err())
	}
	if n := g.b.LeasedCPUs(); n != 0 {
		t.Fatalf("%d leases leaked", n)
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
// retried job completes on the healthy one.
func TestGatekeeperStallResubmitsElsewhere(t *testing.T) {
	g := newGrid(t, 2, 1, Config{Deterministic: true, QuarantineThreshold: 1})
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
