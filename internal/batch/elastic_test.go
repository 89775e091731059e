package batch

import (
	"errors"
	"testing"
	"time"

	"crossbroker/internal/simclock"
)

func newPool(sim *simclock.Sim, cfg ElasticConfig) *Pool {
	return NewPool(sim, "cloud", cfg, nil)
}

func TestElasticColdStartThenWarmReuse(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	p := newPool(sim, ElasticConfig{
		MaxNodes: 2, ColdStart: 45 * time.Second,
		WarmWindow: 5 * time.Minute, Cycle: 2 * time.Second,
	})
	start := sim.Now()
	var firstStart, secondStart time.Duration
	p.Submit(Request{ID: "a", Nodes: 1, RunCB: simclock.Blocking(sim, func(ctx *ExecCtx) {
		firstStart = sim.Since(start)
		ctx.SleepOrKilled(10 * time.Second)
	})})
	sim.RunFor(time.Minute)
	// Pass at +2s finds no warm node and boots one; the node lands at
	// +47s; the next pass starts the job at +49s.
	if firstStart != 49*time.Second {
		t.Fatalf("cold job started at +%v, want +49s (cycle + cold start + cycle)", firstStart)
	}

	// The freed node is warm: a job submitted inside the warm window
	// starts after one scheduling cycle, with no second cold start.
	p.Submit(Request{ID: "b", Nodes: 1, RunCB: simclock.Blocking(sim, func(ctx *ExecCtx) {
		secondStart = sim.Since(start)
	})})
	sim.RunFor(10 * time.Second)
	if secondStart != 62*time.Second {
		t.Fatalf("warm job started at +%v, want +1m2s (one cycle after submission, no cold start)", secondStart)
	}
	if got := len(p.Nodes()); got != 1 {
		t.Fatalf("provisioned nodes = %d, want 1 (only the demanded node booted)", got)
	}
}

func TestElasticScaleDownReclaim(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	p := newPool(sim, ElasticConfig{
		MaxNodes: 3, ColdStart: 30 * time.Second,
		WarmWindow: 2 * time.Minute, Cycle: 2 * time.Second,
	})
	p.Submit(Request{ID: "a", Nodes: 1, RunCB: simclock.Blocking(sim, func(ctx *ExecCtx) {
		ctx.SleepOrKilled(10 * time.Second)
	})})
	sim.RunFor(time.Minute)
	if got := len(p.Nodes()); got != 1 {
		t.Fatalf("provisioned after run = %d, want 1", got)
	}
	if got := p.FreeNodeCount(); got != 3 {
		t.Fatalf("FreeNodeCount = %d, want 3 (1 warm + 2 headroom)", got)
	}
	// Past the warm window the idle node is reclaimed; capacity is
	// still fully placeable, just cold again.
	sim.RunFor(3 * time.Minute)
	if got := len(p.Nodes()); got != 0 {
		t.Fatalf("provisioned after warm window = %d, want 0 (reclaimed)", got)
	}
	if got := p.FreeNodeCount(); got != 3 {
		t.Fatalf("FreeNodeCount after reclaim = %d, want 3 (all headroom)", got)
	}
	if got := p.TotalCPUs(); got != 3 {
		t.Fatalf("TotalCPUs = %d, want the capacity bound 3", got)
	}
}

func TestElasticWarmReuseResetsReclaimTimer(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	p := newPool(sim, ElasticConfig{
		MaxNodes: 1, ColdStart: 30 * time.Second,
		WarmWindow: 1 * time.Minute, Cycle: 2 * time.Second,
	})
	p.Submit(Request{ID: "a", Nodes: 1, RunCB: simclock.Blocking(sim, func(ctx *ExecCtx) {
		ctx.SleepOrKilled(50 * time.Second)
	})})
	sim.Run()
	// Reuse the node 30s into its 60s idle window: the old reclaim
	// timer must not fire mid-run or just after the second job frees
	// the node again.
	sim.RunFor(30 * time.Second)
	var started bool
	p.Submit(Request{ID: "b", Nodes: 1, RunCB: simclock.Blocking(sim, func(ctx *ExecCtx) {
		started = true
		ctx.SleepOrKilled(45 * time.Second)
	})})
	sim.RunFor(50 * time.Second)
	if !started {
		t.Fatal("second job never started on the warm node")
	}
	if got := len(p.Nodes()); got != 1 {
		t.Fatalf("node reclaimed while the stale idle timer was pending: nodes = %d", got)
	}
	sim.RunFor(2 * time.Minute)
	if got := len(p.Nodes()); got != 0 {
		t.Fatalf("node not reclaimed after its fresh idle window: nodes = %d", got)
	}
}

func TestElasticCrashAllKillsAndDeprovisions(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	p := newPool(sim, ElasticConfig{
		MaxNodes: 2, ColdStart: 20 * time.Second,
		WarmWindow: 5 * time.Minute, Cycle: 2 * time.Second,
	})
	var killedOrder []string
	mk := func(id string) Request {
		return Request{ID: id, Nodes: 1, RunCB: simclock.Blocking(sim, func(ctx *ExecCtx) {
			if ctx.SleepOrKilled(time.Hour) {
				killedOrder = append(killedOrder, id)
			}
		})}
	}
	ha, _ := p.Submit(mk("a"))
	hb, _ := p.Submit(mk("b"))
	hc, _ := p.Submit(mk("c")) // stays pending: capacity is 2
	sim.RunFor(time.Minute)
	if ha.State() != Running || hb.State() != Running {
		t.Fatalf("states before crash: a=%v b=%v", ha.State(), hb.State())
	}
	p.CrashAll()
	sim.RunFor(time.Second)
	if hc.State() != Killed {
		t.Fatalf("pending job after crash = %v, want killed", hc.State())
	}
	if ha.State() != Killed || hb.State() != Killed {
		t.Fatalf("running jobs after crash: a=%v b=%v", ha.State(), hb.State())
	}
	if len(killedOrder) != 2 || killedOrder[0] != "a" || killedOrder[1] != "b" {
		t.Fatalf("kill order = %v, want [a b] (submission order)", killedOrder)
	}
	if got := len(p.Nodes()); got != 0 {
		t.Fatalf("nodes after crash = %d, want 0 (tenancy gone)", got)
	}
	if got := p.FreeNodeCount(); got != 2 {
		t.Fatalf("FreeNodeCount after crash = %d, want full cold capacity 2", got)
	}

	// A post-crash submission boots fresh; the pre-crash boot timers
	// and idle timers must not resurrect the dead tenancy.
	var restarted bool
	p.Submit(Request{ID: "d", Nodes: 1, RunCB: simclock.Blocking(sim, func(ctx *ExecCtx) { restarted = true })})
	sim.Run()
	if !restarted {
		t.Fatal("post-crash job never ran")
	}
}

func TestElasticCrashDuringBoot(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	p := newPool(sim, ElasticConfig{
		MaxNodes: 1, ColdStart: 30 * time.Second,
		WarmWindow: time.Minute, Cycle: 2 * time.Second,
	})
	h, _ := p.Submit(Request{ID: "a", Nodes: 1, RunCB: simclock.Blocking(sim, func(ctx *ExecCtx) {})})
	sim.RunFor(10 * time.Second) // boot in flight
	p.CrashAll()
	sim.RunFor(time.Minute) // boot timer fires into the dead generation
	if h.State() != Killed {
		t.Fatalf("job = %v, want killed", h.State())
	}
	if got := len(p.Nodes()); got != 0 {
		t.Fatalf("a crashed boot still provisioned a node: nodes = %d", got)
	}
	// The pool still works afterwards.
	var ran bool
	p.Submit(Request{ID: "b", Nodes: 1, RunCB: simclock.Blocking(sim, func(ctx *ExecCtx) { ran = true })})
	sim.Run()
	if !ran {
		t.Fatal("post-crash job never ran")
	}
}

func TestElasticSeededJitterDeterministic(t *testing.T) {
	run := func() time.Duration {
		sim := simclock.NewSim(time.Time{})
		p := newPool(sim, ElasticConfig{
			MaxNodes: 1, ColdStart: 30 * time.Second, ColdStartJitter: 10 * time.Second,
			WarmWindow: time.Minute, Cycle: 2 * time.Second, Seed: 7,
		})
		start := sim.Now()
		var at time.Duration
		p.Submit(Request{ID: "a", Nodes: 1, RunCB: simclock.Blocking(sim, func(ctx *ExecCtx) { at = sim.Since(start) })})
		sim.Run()
		return at
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("seeded cold starts diverged: %v vs %v", a, b)
	}
	base := 2*time.Second + 30*time.Second + 2*time.Second
	if a < base || a > base+10*time.Second {
		t.Fatalf("jittered start %v outside [%v, %v]", a, base, base+10*time.Second)
	}
}

func TestElasticCapacityValidation(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	p := newPool(sim, ElasticConfig{MaxNodes: 2, ColdStart: time.Second, WarmWindow: time.Minute})
	if _, err := p.Submit(Request{ID: "x", Nodes: 3, RunCB: simclock.Blocking(sim, func(ctx *ExecCtx) {})}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("oversized job: err = %v, want ErrBadRequest", err)
	}
	if _, err := p.Submit(Request{ID: "x", Nodes: 0, RunCB: simclock.Blocking(sim, func(ctx *ExecCtx) {})}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("zero-node job: err = %v, want ErrBadRequest", err)
	}
	if _, err := p.Submit(Request{ID: "x", Nodes: 1, RunCB: nil}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("nil body: err = %v, want ErrBadRequest", err)
	}
	p.Submit(Request{ID: "dup", Nodes: 1, RunCB: simclock.Blocking(sim, func(ctx *ExecCtx) { ctx.SleepOrKilled(time.Hour) })})
	if _, err := p.Submit(Request{ID: "dup", Nodes: 1, RunCB: simclock.Blocking(sim, func(ctx *ExecCtx) {})}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate id: err = %v, want ErrDuplicateID", err)
	}
	if err := p.Kill("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown kill: err = %v, want ErrUnknownJob", err)
	}
}

func TestElasticBackendInfo(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	p := newPool(sim, ElasticConfig{MaxNodes: 2, ColdStart: 40 * time.Second, ColdStartJitter: 5 * time.Second})
	b := p.Backend()
	if b.Kind != BackendElastic {
		t.Fatalf("Kind = %q", b.Kind)
	}
	if b.Startup != 45*time.Second {
		t.Fatalf("Startup = %v, want the worst-case 45s", b.Startup)
	}
	q := newQueue(sim, 2)
	if qb := q.Backend(); qb.Kind != BackendBatch || qb.Startup != 0 {
		t.Fatalf("queue backend = %+v", qb)
	}
}

func TestElasticStallDelaysScheduling(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	p := newPool(sim, ElasticConfig{
		MaxNodes: 1, ColdStart: 10 * time.Second, WarmWindow: time.Minute, Cycle: 2 * time.Second,
	})
	start := sim.Now()
	var at time.Duration
	p.Stall(30 * time.Second)
	if !p.Stalled() {
		t.Fatal("not stalled after Stall")
	}
	p.Submit(Request{ID: "a", Nodes: 1, RunCB: simclock.Blocking(sim, func(ctx *ExecCtx) { at = sim.Since(start) })})
	sim.Run()
	// Stall to +30s, boot to +40s, pass at +42s.
	if at != 42*time.Second {
		t.Fatalf("started at +%v, want +42s (stall + cold start + cycle)", at)
	}
}
