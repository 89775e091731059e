package broker

import (
	"testing"
	"time"

	"crossbroker/internal/glidein"
	"crossbroker/internal/jdl"
	"crossbroker/internal/simclock"
	"crossbroker/internal/trace"
)

// recycleGrid is a traced grid of two one-node sites, each with a
// standing agent (an hour-long batch payload), whose placement free
// list two concurrent shared jobs have filled. Deterministic selection
// puts a one-VM job on site00's agent while it is free.
func recycleGrid(t *testing.T, cfg Config) (*grid, *trace.Tracer) {
	t.Helper()
	cfg.Deterministic = true
	g, tr := tracedGrid(t, 2, 1, cfg)
	for i := 0; i < 2; i++ {
		if _, err := g.b.Submit(batchJob(time.Hour)); err != nil {
			t.Fatal(err)
		}
		g.sim.RunFor(2 * time.Minute)
	}
	if g.b.FreeAgents() != 2 {
		t.Fatalf("%d free agents, want the 2 standing ones", g.b.FreeAgents())
	}
	w1 := sharedJob(t, g, time.Minute)
	g.sim.RunFor(10 * time.Second)
	w2 := sharedJob(t, g, time.Minute)
	g.sim.RunFor(5 * time.Minute)
	if w1.State() != Done || w2.State() != Done || w1.Site() == w2.Site() || len(g.b.placements) != 2 {
		t.Fatalf("warm-up jobs %v on %s and %v on %s, %d placements recycled; want both done side by side, 2 recycled",
			w1.State(), w1.Site(), w2.State(), w2.Site(), len(g.b.placements))
	}
	return g, tr
}

// sharedJob submits a one-VM shared job burning cpu.
func sharedJob(t *testing.T, g *grid, cpu time.Duration) *Handle {
	t.Helper()
	req := interactiveJob(jdl.SharedAccess, 10, 1)
	req.CPU = cpu
	h, err := g.b.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// runUntilTerminal runs the grid until h is Done or Failed.
func runUntilTerminal(t *testing.T, g *grid, h *Handle) {
	t.Helper()
	for i := 0; i < 600 && !h.State().Terminal(); i++ {
		g.sim.RunFor(time.Second)
	}
	if !h.State().Terminal() {
		t.Fatalf("%s still %v after ten minutes", h.ID, h.State())
	}
}

// checkRecycled drains the grid (the standing agents' payloads end),
// then holds the trace to the drained-grid invariants and every
// placement on the free list to the recycle rule: none of its triggers
// holds a registration.
func checkRecycled(t *testing.T, g *grid, tr *trace.Tracer) {
	t.Helper()
	g.sim.RunFor(3 * time.Hour)
	if v := trace.CheckComplete(tr.Snapshot("").Events); len(v) != 0 {
		t.Errorf("trace invariant violations: %v", v)
	}
	for i, p := range g.b.placements {
		for _, tg := range []*simclock.Trigger{&p.jobDone, &p.over, &p.rc.killed, &p.rc.over, &p.rc.slotsDone} {
			if n := tg.Registered(); n != 0 {
				t.Errorf("recycled placement %d: a trigger holds %d registrations", i, n)
			}
		}
		if p.h != nil || p.heartbeats != 0 {
			t.Errorf("recycled placement %d still holds job %v, %d heartbeats", i, p.h, p.heartbeats)
		}
	}
}

// wantDone fails unless h finished after resub resubmissions, with no
// HeartbeatLost event of its own unless it was resubmitted.
func wantDone(t *testing.T, tr *trace.Tracer, h *Handle, resub int) {
	t.Helper()
	if h.State() != Done || h.Resubmissions() != resub {
		t.Errorf("%s: %v after %d resubmissions (err %v), want done after %d", h.ID, h.State(), h.Resubmissions(), h.Err(), resub)
	}
	lost := 0
	for _, e := range tr.Snapshot("").Events {
		if e.Job == h.ID && e.Kind == trace.HeartbeatLost {
			lost++
		}
	}
	if lost != resub {
		t.Errorf("%s: %d heartbeat losses, want %d", h.ID, lost, resub)
	}
}

// takesRecycled submits a follow-up shared job while the free list
// holds a placement, checks that the job took one, and returns it.
func takesRecycled(t *testing.T, g *grid, cpu time.Duration) *Handle {
	t.Helper()
	n := len(g.b.placements)
	if n == 0 {
		t.Fatal("no recycled placement for the follow-up job")
	}
	h := sharedJob(t, g, cpu)
	g.sim.RunFor(time.Second)
	if len(g.b.placements) != n-1 {
		t.Fatalf("follow-up job left %d placements on the free list, want %d", len(g.b.placements), n-1)
	}
	return h
}

// TestAttemptRecycleIsQuiescent: a shared-VM attempt goes back to the
// broker's free list only when nothing can reach it any more, so a
// later job that takes a recycled placement runs undisturbed by
// whatever the earlier attempt left scheduled.
func TestAttemptRecycleIsQuiescent(t *testing.T) {
	// (a) The hosting agent dies while the job runs, and the body ends
	// normally before the heartbeat notices. The heartbeat's verdict is
	// still pending when the job finishes, so its placement must not be
	// recycled: the verdict would kill the next job on it.
	t.Run("released inside the heartbeat window", func(t *testing.T) {
		g, tr := recycleGrid(t, Config{AgentHeartbeat: 5 * time.Minute})
		a := sharedJob(t, g, 2*time.Minute)
		g.sim.RunFor(30 * time.Second)
		if a.State() != Running || a.Site() != "site00" {
			t.Fatalf("job %v on %q, want running on site00", a.State(), a.Site())
		}
		if !g.b.KillAgentAt("site00") {
			t.Fatal("no agent to kill at site00")
		}
		runUntilTerminal(t, g, a)
		wantDone(t, tr, a, 0)
		b := takesRecycled(t, g, 10*time.Minute)
		g.sim.RunFor(30 * time.Minute)
		wantDone(t, tr, b, 0)
		checkRecycled(t, g, tr)
	})

	// (b) An abort that arrives after the job is done changes nothing,
	// for the job or for the next one on its recycled placement.
	t.Run("abort after done", func(t *testing.T) {
		g, tr := recycleGrid(t, Config{})
		a := sharedJob(t, g, time.Minute)
		runUntilTerminal(t, g, a)
		wantDone(t, tr, a, 0)
		b := takesRecycled(t, g, 2*time.Minute)
		g.b.Abort(a, nil)
		g.sim.RunFor(30 * time.Minute)
		wantDone(t, tr, a, 0)
		wantDone(t, tr, b, 0)
		checkRecycled(t, g, tr)
	})

	// (c) A width-2 job loses the dispatch race: its first subjob
	// starts on site00's agent, then site01's VM is gone. The started
	// subjob's body still runs on the placement, so it is left to the
	// collector.
	t.Run("dispatch race", func(t *testing.T) {
		g, tr := recycleGrid(t, Config{})
		wide := interactiveJob(jdl.SharedAccess, 10, 2)
		wide.Job.Flavor = jdl.MPICHG2
		w, err := g.b.Submit(wide)
		if err != nil {
			t.Fatal(err)
		}
		// Take site01's VM between the wide job's selection and its
		// dispatch, as a concurrent placement would.
		g.sim.RunFor(time.Second)
		took := false
		for _, a := range g.b.freeAgents {
			if a.Site().Name() == "site01" {
				_, err := a.StartInteractive(glidein.InteractiveJob{ID: "taker", Owner: "u",
					RunCB: func(ctx *glidein.InteractiveContext, done func()) { ctx.Sim.AfterFunc(time.Minute, done) }})
				if err != nil {
					t.Fatal(err)
				}
				took = true
				break
			}
		}
		if !took {
			t.Fatal("no free agent on site01")
		}
		runUntilTerminal(t, g, w)
		if w.State() != Failed || w.Err() != ErrNoResources {
			t.Fatalf("wide job %v (%v), want failed with ErrNoResources", w.State(), w.Err())
		}
		g.sim.RunFor(10 * time.Minute) // the taker's VM frees up
		b := takesRecycled(t, g, time.Minute)
		g.sim.RunFor(30 * time.Minute)
		wantDone(t, tr, b, 0)
		checkRecycled(t, g, tr)
	})

	// (d) The hosting agent dies and the heartbeat notices mid-run: the
	// job is resubmitted on a fresh placement and finishes on the other
	// agent. The lost attempt's killed body still ends on its old
	// placement, which must stay out of the free list.
	t.Run("agent lost, then resubmitted", func(t *testing.T) {
		g, tr := recycleGrid(t, Config{AgentHeartbeat: 5 * time.Second})
		a := sharedJob(t, g, 5*time.Minute)
		g.sim.RunFor(30 * time.Second)
		if a.State() != Running || a.Site() != "site00" {
			t.Fatalf("job %v on %q, want running on site00", a.State(), a.Site())
		}
		if !g.b.KillAgentAt("site00") {
			t.Fatal("no agent to kill at site00")
		}
		runUntilTerminal(t, g, a)
		wantDone(t, tr, a, 1)
		b := takesRecycled(t, g, time.Minute)
		g.sim.RunFor(30 * time.Minute)
		wantDone(t, tr, b, 0)
		checkRecycled(t, g, tr)
	})
}
