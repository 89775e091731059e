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

// TestQueryStateAnswersAtFireInstant: a probe reports the site as it
// stands when the answer arrives, and a continuation that probes again
// from inside the answer (reusing the record just freed) gets its own
// answer one round trip later.
func TestQueryStateAnswersAtFireInstant(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	s := newSite(sim, 3)
	var answers []bool
	s.QueryStateAsync(func(_, _ int, ok bool) {
		answers = append(answers, ok)
		s.SetUnreachable(false)
		s.QueryStateAsync(func(free, _ int, ok bool) {
			answers = append(answers, ok && free == 3)
		})
	})
	s.SetUnreachable(true) // cut before the first answer arrives
	sim.Run()
	if len(answers) != 2 || answers[0] || !answers[1] {
		t.Fatalf("answers %v, want [false true]", answers)
	}
	if len(s.queries) != 1 {
		t.Fatalf("%d query records on the free list after two sequential probes, want 1", len(s.queries))
	}
}

// TestQueryStateAllocs: once the site's free list holds a record per
// probe in flight, a probe with a continuation made beforehand
// allocates nothing.
func TestQueryStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sim := simclock.NewSim(time.Time{})
	s := newSite(sim, 4)
	answered := 0
	cont := func(_, _ int, ok bool) {
		if ok {
			answered++
		}
	}
	probe := func() {
		for i := 0; i < 3; i++ {
			s.QueryStateAsync(cont)
		}
		sim.RunFor(time.Minute)
	}
	probe() // warm-up: three records, the event free list
	answered = 0
	if got := testing.AllocsPerRun(100, probe); got != 0 {
		t.Errorf("three probes in flight: %v allocations, want 0", got)
	}
	if answered != 3*101 { // AllocsPerRun runs probe once more to warm up
		t.Fatalf("%d probes answered, want %d", answered, 3*101)
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
	first := is.SnapshotImmediate().Records()[0]
	if first.Gatekeeper != "x/gatekeeper" || first.Attrs["OS"] != "linux" {
		t.Fatalf("initial publish = %+v", first)
	}
	sim.RunFor(90 * time.Second)
	second := is.SnapshotImmediate().Records()[0]
	if !second.UpdatedAt.After(first.UpdatedAt) {
		t.Fatal("record not refreshed")
	}
	if second.Gatekeeper != first.Gatekeeper || len(second.Attrs) != len(first.Attrs) {
		t.Fatalf("refresh changed the published attributes: %+v", second)
	}

	// An index that dropped the record gets the full record back on the
	// next tick, not a refusal.
	is.Remove("x")
	sim.RunFor(time.Minute)
	recs := is.SnapshotImmediate().Records()
	if len(recs) != 1 {
		t.Fatalf("%d records after the tick that follows a Remove, want 1", len(recs))
	}
	if r := recs[0]; r.Gatekeeper != "x/gatekeeper" || len(r.Attrs) != len(first.Attrs) || r.Attrs["OS"] != "linux" || !r.UpdatedAt.After(second.UpdatedAt) {
		t.Fatalf("republish after Remove = %+v", r)
	}
}

// TestPublishTickAllocs: one refresh tick of a registered, idle site
// allocates nothing: the index stores the tick's time beside the row it
// holds, not a new row, and the site builds no record and no gatekeeper
// string.
func TestPublishTickAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sim := simclock.NewSim(time.Time{})
	s := New(sim, Config{Name: "x", Nodes: 4, PublishInterval: time.Minute, Network: netsim.CampusGrid()})
	is := infosys.New(sim, 0)
	s.StartPublishing(is)
	is.SnapshotImmediate() // the row gets its vector
	epoch := is.Epoch()
	const ticks = 100
	if got := testing.AllocsPerRun(ticks, func() { sim.RunFor(time.Minute) }); got != 0 {
		t.Errorf("publish tick: %v allocations, want 0", got)
	}
	if got := is.Epoch() - epoch; got != ticks+1 {
		t.Fatalf("%d publishes, want one per tick (%d)", got, ticks+1)
	}
}

func TestDefaultsApplied(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	s := New(sim, Config{Name: "d"})
	if s.Queue().TotalCPUs() != 1 {
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

// TestSubmitRecordRecycles: a submission returns its record to the
// site's free list before its continuation runs, so a continuation that
// submits again reuses it and gets its own outcome, and the gatekeeper
// chain allocates nothing beyond what the LRM does for the same jobs.
func TestSubmitRecordRecycles(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	s := newSite(sim, 4)
	var outcomes []error
	s.SubmitAsync(batch.Request{Nodes: 1, RunCB: noop}, SubmitOptions{}, func(_ *batch.Handle, err error) {
		outcomes = append(outcomes, err)
		s.SubmitAsync(batch.Request{Nodes: 1, RunCB: noop}, SubmitOptions{WithAgent: true}, func(_ *batch.Handle, err error) {
			outcomes = append(outcomes, err)
		})
	})
	sim.Run()
	if len(outcomes) != 2 || outcomes[0] != nil || outcomes[1] != nil {
		t.Fatalf("outcomes %v, want two commits", outcomes)
	}
	if len(s.submissions) != 1 {
		t.Fatalf("%d submission records on the free list after two sequential submissions, want 1", len(s.submissions))
	}

	if raceEnabled {
		return // allocation counts are not meaningful under the race detector
	}
	req := batch.Request{Nodes: 1, RunCB: noop}
	cont := func(_ *batch.Handle, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	viaGatekeeper := func() {
		for i := 0; i < 3; i++ {
			s.SubmitAsync(req, SubmitOptions{}, cont)
		}
		sim.RunFor(time.Minute)
	}
	direct := func() {
		for i := 0; i < 3; i++ {
			if _, err := s.lrms.Submit(req); err != nil {
				t.Fatal(err)
			}
		}
		sim.RunFor(time.Minute)
	}
	viaGatekeeper() // warm-up: three records, the event free list
	direct()
	gk, lrm := testing.AllocsPerRun(50, viaGatekeeper), testing.AllocsPerRun(50, direct)
	if gk > lrm {
		t.Errorf("three submissions through the gatekeeper: %v allocations, over the LRM's own %v", gk, lrm)
	}
}
