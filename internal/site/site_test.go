package site

import (
	"testing"
	"time"

	"crossbroker/internal/batch"
	"crossbroker/internal/infosys"
	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
)

func newSite(sim *simclock.Sim, nodes int) *Site {
	return New(sim, Config{
		Name:    "uab",
		Nodes:   nodes,
		Network: netsim.CampusGrid(),
		Costs:   DefaultCosts(),
	})
}

// noop is a job body that finishes at once.
func noop(_ *batch.ExecCtx, done func()) { done() }

func TestRecordReflectsQueueState(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	s := newSite(sim, 4)
	r := s.Record()
	if r.Name != "uab" || r.TotalCPUs != 4 || r.FreeCPUs != 4 || r.QueuedJobs != 0 {
		t.Fatalf("record = %+v", r)
	}
	if r.Attrs["Arch"] != "i686" {
		t.Fatalf("attrs = %v", r.Attrs)
	}
}

func TestSubmitPaysMiddlewareCosts(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	s := newSite(sim, 2)
	start := sim.Now()
	var acceptedAt, startedAt time.Duration
	s.SubmitAsync(batch.Request{ID: "j", Nodes: 1, RunCB: func(ctx *batch.ExecCtx, done func()) {
		startedAt = sim.Since(start)
		done()
	}}, SubmitOptions{}, func(_ *batch.Handle, err error) {
		if err != nil {
			t.Errorf("submit: %v", err)
			return
		}
		acceptedAt = sim.Since(start)
	})
	sim.Run()
	c := DefaultCosts()
	wantMin := c.Stage + c.Auth + c.GRAM
	if acceptedAt < wantMin {
		t.Fatalf("accepted at %v, want >= %v", acceptedAt, wantMin)
	}
	// Job starts one LRM cycle after enqueue.
	if startedAt < acceptedAt {
		t.Fatalf("started %v before accepted %v", startedAt, acceptedAt)
	}
}

func TestSubmitWithAgentCostsMore(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	s := newSite(sim, 2)
	start := sim.Now()
	var plain, withAgent time.Duration
	s.SubmitAsync(batch.Request{ID: "a", Nodes: 1, RunCB: noop}, SubmitOptions{}, func(*batch.Handle, error) {
		plain = sim.Since(start)
		t0 := sim.Now()
		s.SubmitAsync(batch.Request{ID: "b", Nodes: 1, RunCB: noop}, SubmitOptions{WithAgent: true}, func(*batch.Handle, error) {
			withAgent = sim.Since(t0)
		})
	})
	sim.Run()
	if withAgent-plain != DefaultCosts().AgentStage {
		t.Fatalf("agent overhead = %v, want %v", withAgent-plain, DefaultCosts().AgentStage)
	}
}

func TestSkipStage(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	s := newSite(sim, 2)
	start := sim.Now()
	var took time.Duration
	s.SubmitAsync(batch.Request{ID: "g", Nodes: 1, RunCB: noop}, SubmitOptions{SkipStage: true}, func(*batch.Handle, error) {
		took = sim.Since(start)
	})
	sim.Run()
	full := DefaultCosts().Stage + DefaultCosts().Auth + DefaultCosts().GRAM
	if took >= full {
		t.Fatalf("SkipStage submission took %v, want < %v", took, full)
	}
}

func TestQueryStateCostsRTT(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	s := newSite(sim, 3)
	start := sim.Now()
	var took time.Duration
	var free int
	s.QueryStateAsync(func(f, _ int, _ bool) {
		free = f
		took = sim.Since(start)
	})
	sim.Run()
	if free != 3 {
		t.Fatalf("free = %d", free)
	}
	if took < netsim.CampusGrid().RTT() {
		t.Fatalf("query took %v, less than one RTT", took)
	}
}

func TestStartPublishing(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	s := New(sim, Config{Name: "x", Nodes: 1, PublishInterval: time.Minute, Network: netsim.CampusGrid()})
	is := infosys.New(sim, 0)
	s.StartPublishing(is)
	if is.Len() != 1 {
		t.Fatal("initial publish missing")
	}
	first := is.QueryImmediate()[0].UpdatedAt
	sim.RunFor(90 * time.Second)
	second := is.QueryImmediate()[0].UpdatedAt
	if !second.After(first) {
		t.Fatal("record not refreshed")
	}
}

func TestDefaultsApplied(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	s := New(sim, Config{Name: "d"})
	if len(s.Queue().Nodes()) != 1 {
		t.Fatal("default nodes != 1")
	}
	if s.Record().Attrs["OS"] != "linux" {
		t.Fatal("default attrs missing")
	}
}

func TestStartPublishingIdempotent(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	s := New(sim, Config{Name: "x", Nodes: 1, PublishInterval: time.Minute, Network: netsim.CampusGrid()})
	is := infosys.New(sim, 0)
	// Two federated brokers registering the same site must not start
	// two publish loops.
	s.StartPublishing(is)
	epoch := is.Epoch()
	s.StartPublishing(is)
	if is.Epoch() != epoch {
		t.Fatal("second StartPublishing republished immediately")
	}
	sim.RunFor(150 * time.Second) // 2 ticks of one loop, 4 of two
	if got := is.Epoch() - epoch; got != 2 {
		t.Fatalf("%d publishes in 150s, want 2 (one loop)", got)
	}
}

func TestCommitStatsCountRacedWindows(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	s := newSite(sim, 2)
	// Two brokers submit in the same tick: identical middleware costs
	// keep them in lockstep, so their commit windows overlap and the
	// site sees the race in MaxInflight.
	for i := 0; i < 2; i++ {
		id := string(rune('a' + i))
		s.SubmitAsync(batch.Request{ID: id, Nodes: 1, RunCB: noop}, SubmitOptions{}, func(_ *batch.Handle, err error) {
			if err != nil {
				t.Errorf("submit %s: %v", id, err)
			}
		})
	}
	sim.RunFor(time.Hour)
	st := s.Stats()
	if st.Sent != 2 || st.Committed != 2 || st.Aborted != 0 {
		t.Fatalf("stats = %+v, want 2 sent / 2 committed", st)
	}
	if st.MaxInflight != 2 {
		t.Fatalf("MaxInflight = %d, want 2 (overlapping commit windows)", st.MaxInflight)
	}
}

func TestCommitStatsCountAbort(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	s := newSite(sim, 1)
	s.SubmitAsync(batch.Request{ID: "j", Nodes: 1, RunCB: noop}, SubmitOptions{}, func(_ *batch.Handle, err error) {
		if err == nil {
			t.Error("submit survived a mid-commit outage")
		}
	})
	// Cut the site inside the commit window: phase 1 is accepted after
	// Stage+RTT+Auth+GRAM, the ack takes one more RTT.
	c := DefaultCosts()
	rtt := netsim.CampusGrid().RTT()
	sim.AfterFunc(c.Stage+c.Auth+c.GRAM+rtt+rtt/2, func() {
		s.SetUnreachable(true)
	})
	sim.RunFor(time.Hour)
	st := s.Stats()
	if st.Sent != 1 || st.Aborted != 1 || st.Committed != 0 {
		t.Fatalf("stats = %+v, want 1 sent / 1 aborted", st)
	}
}
