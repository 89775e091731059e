package broker

import (
	"testing"
	"time"

	"crossbroker/internal/jdl"
)

// TestSharedJobsLeaveNoRegistrations drives a few hundred shared jobs
// through the same standing agents, some of them aborted mid-run, and
// checks that no finished attempt is still registered anywhere that
// outlives it: an agent's Released trigger keeps a fixed handful of
// callbacks however many jobs the agent hosted, and every per-agent
// placement list and every job's abort list is empty.
func TestSharedJobsLeaveNoRegistrations(t *testing.T) {
	g := newGrid(t, 2, 2, Config{Seed: 3, AgentDegree: 2})
	for i := 0; i < 2; i++ {
		if _, err := g.b.Submit(batchJob(1000 * time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	g.sim.RunFor(10 * time.Minute)
	if n := g.b.FreeInteractiveVMs(); n != 4 {
		t.Fatalf("free VMs = %d, want 4 on the two standing agents", n)
	}

	var handles []*Handle
	for wave := 0; wave < 100; wave++ {
		for k, nodes := range []int{1, 2, 1} {
			req := interactiveJob(jdl.SharedAccess, 10, nodes)
			req.CPU = time.Minute
			if nodes > 1 {
				req.Job.Flavor = jdl.MPICHG2
			}
			h, err := g.b.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
			if k == 2 && wave%5 == 0 {
				g.sim.AfterFunc(40*time.Second, func() { g.b.Abort(h, nil) })
			}
			// Spaced out, so no two jobs race for the same free VM.
			g.sim.RunFor(20 * time.Second)
		}
		g.sim.RunFor(15 * time.Minute)
	}

	done, failed := 0, 0
	for _, h := range handles {
		switch h.State() {
		case Done:
			done++
		case Failed:
			failed++
		default:
			t.Fatalf("%s: state %v after its wave", h.ID, h.State())
		}
		if n := h.abort.Registered(); n != 0 {
			t.Errorf("%s: abort trigger holds %d registrations, want 0", h.ID, n)
		}
		if len(h.aborts) != 0 {
			t.Errorf("%s: %d abort waits outlive the job", h.ID, len(h.aborts))
		}
	}
	if done != 280 || failed != 20 {
		t.Fatalf("%d done, %d failed; want 280 run to completion and the 20 aborted", done, failed)
	}

	if len(g.b.agents) != 2 {
		t.Fatalf("%d live agents, want the 2 standing ones", len(g.b.agents))
	}
	// Per agent: the glide-in's own two, the broker's wireAgent hook and
	// the hosted batch payload's wait.
	const maxReleased = 4
	for a, ps := range g.b.agents {
		if n := a.Released().Registered(); n > maxReleased {
			t.Errorf("agent %s: Released holds %d registrations after %d jobs, want at most %d",
				a.ID(), n, len(handles), maxReleased)
		}
		if len(ps) != 0 {
			t.Errorf("agent %s: %d placements still listed", a.ID(), len(ps))
		}
	}
}
