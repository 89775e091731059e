package batch

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"crossbroker/internal/simclock"
)

func newQueue(sim *simclock.Sim, nodes int, opts ...QueueOption) *Queue {
	return NewQueue(sim, "site", nodes, nil, opts...)
}

func TestSubmitRunsAfterCycle(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	q := newQueue(sim, 2, WithCycle(2*time.Second))
	start := sim.Now()
	var startedAt, doneAt time.Duration
	h, err := q.Submit(Request{ID: "j1", Owner: "u", Nodes: 1, RunCB: func(ctx *ExecCtx, done func()) {
		startedAt = sim.Since(start)
		sleepOrKilled(ctx, 10*time.Second, func(bool) {
			doneAt = sim.Since(start)
			done()
		})
	}})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if startedAt != 2*time.Second {
		t.Fatalf("started at +%v, want +2s (one scheduling cycle)", startedAt)
	}
	if doneAt != 12*time.Second {
		t.Fatalf("done at +%v, want +12s", doneAt)
	}
	if h.State() != Completed {
		t.Fatalf("state = %v", h.State())
	}
}

func TestFCFSQueueing(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	q := newQueue(sim, 1, WithCycle(time.Second))
	var order []string
	mk := func(id string) Request {
		return Request{ID: id, Nodes: 1, RunCB: func(ctx *ExecCtx, done func()) {
			order = append(order, id)
			sleepCB(5*time.Second)(ctx, done)
		}}
	}
	q.Submit(mk("a"))
	q.Submit(mk("b"))
	q.Submit(mk("c"))
	sim.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
}

func TestPriorityOrdering(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	q := newQueue(sim, 1, WithCycle(time.Second))
	var order []string
	mk := func(id string, prio int) Request {
		return Request{ID: id, Nodes: 1, Priority: prio, RunCB: func(ctx *ExecCtx, done func()) {
			order = append(order, id)
			sleepCB(time.Second)(ctx, done)
		}}
	}
	q.Submit(mk("low", 0))
	q.Submit(mk("high", 10))
	sim.Run()
	if order[0] != "high" {
		t.Fatalf("order = %v", order)
	}
}

func TestMultiNodeAllocation(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	q := newQueue(sim, 4, WithCycle(time.Second))
	var got int
	q.Submit(Request{ID: "mpi", Nodes: 3, RunCB: func(ctx *ExecCtx, done func()) {
		got = len(ctx.Nodes)
		sleepCB(time.Second)(ctx, done)
	}})
	sim.Run()
	if got != 3 {
		t.Fatalf("allocated %d nodes, want 3", got)
	}
}

func TestLargeJobBlocksQueueNoBackfill(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	q := newQueue(sim, 2, WithCycle(time.Second))
	start := sim.Now()
	var bigStart, smallStart time.Duration
	q.Submit(Request{ID: "hold", Nodes: 1, RunCB: sleepCB(10 * time.Second)})
	q.Submit(Request{ID: "big", Nodes: 2, RunCB: func(ctx *ExecCtx, done func()) {
		bigStart = sim.Since(start)
		sleepCB(time.Second)(ctx, done)
	}})
	q.Submit(Request{ID: "small", Nodes: 1, RunCB: runCB(func() { smallStart = sim.Since(start) })})
	sim.Run()
	// big needs both nodes: waits for hold (ends t=11). small must not
	// jump ahead of big (FCFS, no backfill).
	if bigStart < 11*time.Second {
		t.Fatalf("big started at +%v before hold finished", bigStart)
	}
	if smallStart < bigStart {
		t.Fatalf("small backfilled ahead of big: small=%v big=%v", smallStart, bigStart)
	}
}

// TestSubmitValidation checks admission on both node supplies: an
// elastic queue validates against its bound, not the (zero) nodes it
// has provisioned.
func TestSubmitValidation(t *testing.T) {
	for _, sup := range supplies {
		sim := simclock.NewSim(time.Time{})
		q := sup.new(sim, 2, rand.New(rand.NewSource(1)))
		if _, err := q.Submit(Request{Nodes: 1}); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("%s: nil RunCB: %v", sup.name, err)
		}
		body := func(*ExecCtx, func()) {}
		if _, err := q.Submit(Request{Nodes: 0, RunCB: body}); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("%s: 0 nodes: %v", sup.name, err)
		}
		if _, err := q.Submit(Request{Nodes: 3, RunCB: body}); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("%s: too many nodes: %v", sup.name, err)
		}
		if _, err := q.Submit(Request{ID: "x", Nodes: 2, RunCB: body}); err != nil {
			t.Fatalf("%s: %v", sup.name, err)
		}
		if _, err := q.Submit(Request{ID: "x", Nodes: 1, RunCB: body}); !errors.Is(err, ErrDuplicateID) {
			t.Fatalf("%s: dup id: %v", sup.name, err)
		}
	}
}

func TestAutoID(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	q := newQueue(sim, 1)
	h1, _ := q.Submit(Request{Nodes: 1, RunCB: doneCB})
	h2, _ := q.Submit(Request{Nodes: 1, RunCB: doneCB})
	if h1.ID() == "" || h1.ID() == h2.ID() {
		t.Fatalf("ids: %q %q", h1.ID(), h2.ID())
	}
}

func TestKillPendingJob(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	q := newQueue(sim, 1, WithCycle(time.Second))
	ran := false
	q.Submit(Request{ID: "hold", Nodes: 1, RunCB: sleepCB(time.Hour)})
	h, _ := q.Submit(Request{ID: "victim", Nodes: 1, RunCB: runCB(func() { ran = true })})
	sim.AfterFunc(2*time.Second, func() {
		if err := q.Kill("victim"); err != nil {
			t.Errorf("Kill: %v", err)
		}
	})
	sim.RunFor(10 * time.Second)
	if ran || h.State() != Killed {
		t.Fatalf("ran=%v state=%v", ran, h.State())
	}
	if !h.Done.Fired() {
		t.Fatal("Done not fired for killed pending job")
	}
	// The dropped job is forgotten, and so is a finished one.
	if _, ok := q.jobs["victim"]; ok {
		t.Fatal("killed pending job still known")
	}
	if err := q.Kill("victim"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("second Kill: err = %v, want ErrUnknownJob", err)
	}
	q.Kill("hold")
	sim.RunFor(time.Second)
	if _, ok := q.jobs["hold"]; ok || q.RunningCount() != 0 {
		t.Fatalf("finished job still known: running = %d", q.RunningCount())
	}
}

func TestKillRunningJob(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	q := newQueue(sim, 1, WithCycle(time.Second))
	var killedEarly bool
	h, _ := q.Submit(Request{ID: "j", Nodes: 1, RunCB: func(ctx *ExecCtx, done func()) {
		sleepOrKilled(ctx, time.Hour, func(killed bool) {
			killedEarly = killed
			done()
		})
	}})
	sim.AfterFunc(5*time.Second, func() { q.Kill("j") })
	end := sim.Run()
	if !killedEarly {
		t.Fatal("sleepOrKilled did not report kill")
	}
	if h.State() != Killed {
		t.Fatalf("state = %v", h.State())
	}
	if got := end.Sub(simclock.NewSim(time.Time{}).Now()); got != 5*time.Second {
		t.Fatalf("sim ended at +%v, want +5s", got)
	}
	if q.FreeNodeCount() != 1 {
		t.Fatal("node not released after kill")
	}
}

func TestKillUnknownJob(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	q := newQueue(sim, 1)
	if err := q.Kill("ghost"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("err = %v", err)
	}
}

func TestNodeReleasedStartsNext(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	q := newQueue(sim, 1, WithCycle(time.Second))
	start := sim.Now()
	var secondStart time.Duration
	q.Submit(Request{ID: "a", Nodes: 1, RunCB: sleepCB(4 * time.Second)})
	q.Submit(Request{ID: "b", Nodes: 1, RunCB: runCB(func() { secondStart = sim.Since(start) })})
	sim.Run()
	// a starts at 1s, ends at 5s; b starts one cycle later: 6s.
	if secondStart != 6*time.Second {
		t.Fatalf("b started at +%v, want +6s", secondStart)
	}
}

func TestIntrospection(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	q := newQueue(sim, 2, WithCycle(time.Second))
	q.Submit(Request{ID: "a", Nodes: 2, RunCB: sleepCB(10 * time.Second)})
	q.Submit(Request{ID: "b", Nodes: 1, RunCB: doneCB})
	sim.RunFor(2 * time.Second)
	if q.FreeNodeCount() != 0 || q.QueueLength() != 1 || q.RunningCount() != 1 {
		t.Fatalf("free=%d queued=%d running=%d", q.FreeNodeCount(), q.QueueLength(), q.RunningCount())
	}
	h, ok := q.jobs["a"]
	if !ok || h.State() != Running {
		t.Fatalf("lookup a: %v %v", ok, h)
	}
	for _, n := range q.nodes {
		if n.holder == nil {
			t.Fatalf("node %s not busy", n.Name)
		}
	}
}

func TestFixedWorkConsumesCPU(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	q := newQueue(sim, 2, WithCycle(time.Second))
	h, _ := q.Submit(Request{ID: "w", Nodes: 2, RunCB: FixedWorkCB(3 * time.Second)})
	sim.Run()
	if h.State() != Completed {
		t.Fatalf("state = %v", h.State())
	}
	// Completed at cycle(1s) + work(3s) = 4s.
	if got := sim.Since(simclock.NewSim(time.Time{}).Now()); got != 4*time.Second {
		t.Fatalf("finished at +%v, want +4s", got)
	}
}

func TestFixedWorkKilledReleasesCPU(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	q := newQueue(sim, 1, WithCycle(time.Second))
	h, _ := q.Submit(Request{ID: "w", Nodes: 1, RunCB: FixedWorkCB(time.Hour)})
	sim.AfterFunc(5*time.Second, func() { q.Kill("w") })
	sim.RunFor(20 * time.Second)
	if h.State() != Killed {
		t.Fatalf("state = %v", h.State())
	}
	node := q.nodes[0]
	if node.holder != nil {
		t.Fatal("node still held")
	}
	// The killed job's slot must stop consuming CPU.
	if node.CPU.Runnable() != 0 {
		t.Fatalf("machine still has %d runnable after kill", node.CPU.Runnable())
	}
}

func TestStartedTrigger(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	q := newQueue(sim, 1, WithCycle(time.Second))
	h, _ := q.Submit(Request{ID: "j", Nodes: 1, RunCB: sleepCB(time.Second)})
	var startedFired bool
	sim.AfterFunc(1500*time.Millisecond, func() { startedFired = h.Started.Fired() })
	sim.Run()
	if !startedFired {
		t.Fatal("Started not fired while running")
	}
}

// sleepOrKilled waits d on the job's clock, or less if the LRM kills
// the job first, then runs then with whether the kill came first.
func sleepOrKilled(ctx *ExecCtx, d time.Duration, then func(killed bool)) {
	w := ctx.sim.NewTrigger()
	t := ctx.sim.AfterFunc(d, w.Fire)
	w.WaitAny(func() {
		t.Stop()
		then(ctx.Killed.Fired())
	}, ctx.Killed)
}

// sleepCB is a job body that holds its nodes for d, or until killed.
func sleepCB(d time.Duration) func(*ExecCtx, func()) {
	return func(ctx *ExecCtx, done func()) { sleepOrKilled(ctx, d, func(bool) { done() }) }
}

// doneCB is a job body that finishes at once.
func doneCB(_ *ExecCtx, done func()) { done() }

// runCB is a job body that runs f and finishes at once.
func runCB(f func()) func(*ExecCtx, func()) {
	return func(_ *ExecCtx, done func()) {
		f()
		done()
	}
}
