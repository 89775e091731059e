package broker

// Integration tests realizing Figure 5's four scenarios and additional
// lifecycle edges (agent eviction resubmission, lease expiry, degree-N
// placement, fair-share queue ordering).

import (
	"fmt"
	"testing"
	"time"

	"crossbroker/internal/batch"
	"crossbroker/internal/fairshare"
	"crossbroker/internal/infosys"
	"crossbroker/internal/jdl"
	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
	"crossbroker/internal/site"
)

// TestFigure5Scenario1 — sequential batch job submission triggers an
// agent; the batch job runs on the batch VM.
func TestFigure5Scenario1(t *testing.T) {
	g := newGrid(t, 1, 1, Config{})
	h, _ := g.b.Submit(batchJob(10 * time.Minute))
	g.sim.RunFor(2 * time.Minute)
	if h.State() != Running {
		t.Fatalf("state = %v", h.State())
	}
	if g.b.FreeAgents() != 1 {
		t.Fatal("agent's interactive VM not advertised")
	}
	// The LRM sees one job (the agent) holding the node.
	if g.sites[0].Queue().RunningCount() != 1 || g.sites[0].Queue().FreeNodeCount() != 0 {
		t.Fatal("agent does not own the node through the LRM")
	}
}

// TestFigure5Scenario2 — batch jobs queue in the CrossBroker when the
// grid is saturated, and drain as resources free.
func TestFigure5Scenario2(t *testing.T) {
	g := newGrid(t, 1, 1, Config{RetryInterval: time.Minute})
	g.b.Submit(batchJob(30 * time.Minute))
	g.sim.RunFor(2 * time.Minute)
	// Fill the queue to capacity (QueueSlots = 2).
	var extra []*Handle
	for i := 0; i < 4; i++ {
		h, _ := g.b.Submit(batchJob(time.Minute))
		extra = append(extra, h)
		g.sim.RunFor(30 * time.Second)
	}
	if g.b.PendingBatch() == 0 {
		t.Fatal("no jobs held in the CrossBroker queue")
	}
	g.sim.RunFor(4 * time.Hour)
	for i, h := range extra {
		if h.State() != Done {
			t.Fatalf("queued batch %d never ran: %v %v", i, h.State(), h.Err())
		}
	}
	if g.b.PendingBatch() != 0 {
		t.Fatalf("broker queue not drained: %d", g.b.PendingBatch())
	}
}

// TestFigure5Scenario3 — exclusive interactive submission lands on a
// free machine without an agent.
func TestFigure5Scenario3(t *testing.T) {
	g := newGrid(t, 2, 1, Config{})
	h, _ := g.b.Submit(interactiveJob(jdl.ExclusiveAccess, 0, 1))
	g.sim.RunFor(10 * time.Minute)
	if h.State() != Done {
		t.Fatalf("state = %v err = %v", h.State(), h.Err())
	}
	if h.Shared() {
		t.Fatal("exclusive job used an agent VM")
	}
	// No glide-in agents were involved.
	if g.b.FreeAgents() != 0 {
		t.Fatalf("agents = %d", g.b.FreeAgents())
	}
}

// TestFigure5Scenario4 — shared interactive submission uses an
// existing agent's interactive VM and lowers the batch job's share.
func TestFigure5Scenario4(t *testing.T) {
	g := newGrid(t, 1, 1, Config{})
	hb, _ := g.b.Submit(batchJob(4 * time.Hour))
	g.sim.RunFor(2 * time.Minute)

	var burst time.Duration
	hi, _ := g.b.Submit(Request{
		Job:  interactiveJob(jdl.SharedAccess, 25, 1).Job,
		User: "interuser",
		Body: func(rc *RunContext) {
			rc.Output(64)
			t0 := rc.Sim.Now()
			rc.Slots[0].Run(10 * time.Second)
			burst = rc.Sim.Since(t0)
		},
	})
	g.sim.RunFor(time.Hour)
	if hi.State() != Done || !hi.Shared() {
		t.Fatalf("state = %v shared = %v err = %v", hi.State(), hi.Shared(), hi.Err())
	}
	// CPU division per PerformanceLoss: 10s at 100:25 -> ~12.5s.
	if burst < 12*time.Second || burst > 13*time.Second {
		t.Fatalf("burst = %v, want ~12.5s", burst)
	}
	if hb.State() != Running {
		t.Fatalf("batch job state = %v", hb.State())
	}
}

// TestAgentEvictionResubmitsBatch — "if the agent is killed ... new
// agents will be submitted when possible".
func TestAgentEvictionResubmitsBatch(t *testing.T) {
	g := newGrid(t, 2, 1, Config{RetryInterval: time.Minute})
	h, _ := g.b.Submit(batchJob(20 * time.Minute))
	g.sim.RunFor(2 * time.Minute)
	if h.State() != Running {
		t.Fatalf("state = %v", h.State())
	}
	firstSite := h.Site()

	// The local site kills the agent (node reboot, admin drain). Agent
	// jobs get LRM-assigned ids "<site>.<seq>"; kill everything that
	// runs there.
	for _, st := range g.sites {
		if st.Name() != firstSite {
			continue
		}
		for j := 0; j < 10; j++ {
			st.Queue().Kill(fmt.Sprintf("%s.%d", st.Name(), j))
		}
	}
	g.sim.RunFor(4 * time.Hour)
	if h.State() != Done {
		t.Fatalf("evicted batch never completed: %v %v (resub %d)", h.State(), h.Err(), h.Resubmissions())
	}
	if h.Resubmissions() == 0 {
		t.Fatal("no resubmission recorded after eviction")
	}
}

// TestLeaseExpiryFreesCapacity — an abandoned lease stops blocking the
// site after LeaseDuration.
func TestLeaseExpiryFreesCapacity(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	info := infosys.New(sim, 100*time.Millisecond)
	b := New(Config{Sim: sim, Info: info, LeaseDuration: 30 * time.Second})
	st := site.New(sim, site.Config{Name: "s", Nodes: 1,
		Network: netsim.CampusGrid(), Costs: site.DefaultCosts(), LRMCycle: time.Second})
	b.RegisterSite(st)

	b.lease(&Handle{ID: "t1"}, "s", 1)
	if b.activeLeases("s") != 1 {
		t.Fatal("lease not recorded")
	}
	sim.RunFor(time.Minute)
	if b.activeLeases("s") != 0 {
		t.Fatal("lease survived its window")
	}
	// And a job can now be placed.
	h, _ := b.Submit(Request{Job: interactiveJob(jdl.ExclusiveAccess, 0, 1).Job, User: "u", CPU: time.Second})
	sim.RunFor(10 * time.Minute)
	if h.State() != Done {
		t.Fatalf("state = %v err = %v", h.State(), h.Err())
	}
}

// TestDegreeNSharedPlacement — with AgentDegree 2, a 2-node shared MPI
// job fits on a single agent's node.
func TestDegreeNSharedPlacement(t *testing.T) {
	g := newGrid(t, 1, 1, Config{AgentDegree: 2})
	g.b.Submit(batchJob(4 * time.Hour))
	g.sim.RunFor(2 * time.Minute)
	if g.b.FreeInteractiveVMs() != 2 {
		t.Fatalf("free VMs = %d, want 2", g.b.FreeInteractiveVMs())
	}
	job := &jdl.Job{
		Executable: "mpi", Interactive: true, Flavor: jdl.MPICHG2,
		NodeNumber: 2, Access: jdl.SharedAccess, PerformanceLoss: 10,
	}
	var slots int
	h, _ := g.b.Submit(Request{
		Job: job, User: "u",
		Body: func(rc *RunContext) {
			slots = len(rc.Slots)
			rc.Output(64)
		},
	})
	g.sim.RunFor(time.Hour)
	if h.State() != Done {
		t.Fatalf("state = %v err = %v", h.State(), h.Err())
	}
	if slots != 2 {
		t.Fatalf("slots = %d, want 2 on one node", slots)
	}
}

// TestInteractiveP4MultiNodeExclusive — an MPICH-P4 job needs all its
// nodes on one site, exclusively.
func TestInteractiveP4MultiNodeExclusive(t *testing.T) {
	g := newGrid(t, 2, 4, Config{})
	job := &jdl.Job{
		Executable: "p4app", Interactive: true, Flavor: jdl.MPICHP4,
		NodeNumber: 3, Access: jdl.ExclusiveAccess,
	}
	var slots int
	h, err := g.b.Submit(Request{
		Job: job, User: "u",
		Body: func(rc *RunContext) {
			slots = len(rc.Slots)
			rc.Output(64)
			done := rc.Sim.NewTrigger()
			n := len(rc.Slots)
			for _, s := range rc.Slots {
				tr := s.Start(5 * time.Second)
				tr.OnFire(func() {
					n--
					if n == 0 {
						done.Fire()
					}
				})
			}
			done.Wait()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	g.sim.RunFor(time.Hour)
	if h.State() != Done {
		t.Fatalf("state = %v err = %v", h.State(), h.Err())
	}
	if slots != 3 {
		t.Fatalf("slots = %d", slots)
	}
	// All three nodes came from a single site (P4 constraint is
	// enforced by single-site submission).
	if h.Site() != "site00" && h.Site() != "site01" {
		t.Fatalf("site = %q", h.Site())
	}
	// Nodes released afterwards.
	g.sim.RunFor(time.Minute)
	total := 0
	for _, st := range g.sites {
		total += st.Queue().FreeNodeCount()
	}
	if total != 8 {
		t.Fatalf("free nodes = %d, want 8", total)
	}
}

// TestMultiNodeTooLargeFails — a job larger than any site fails with
// ErrNoResources rather than hanging.
func TestMultiNodeTooLargeFails(t *testing.T) {
	g := newGrid(t, 2, 2, Config{})
	job := &jdl.Job{Executable: "big", Interactive: true, Flavor: jdl.MPICHP4,
		NodeNumber: 5, Access: jdl.ExclusiveAccess}
	h, _ := g.b.Submit(Request{Job: job, User: "u", CPU: time.Second})
	g.sim.RunFor(30 * time.Minute)
	if h.State() != Failed {
		t.Fatalf("state = %v", h.State())
	}
}

// TestBrokerQueueServesBestPriorityFirst — queued batch jobs drain in
// fair-share order.
func TestBrokerQueueServesBestPriorityFirst(t *testing.T) {
	g := newGrid(t, 1, 1, Config{RetryInterval: 30 * time.Second})
	// Worsen "greedy"'s priority.
	g.fair.SetTotal(1)
	g.fair.Allocate("ext", "greedy", 1, fairshare.BatchClass, 0)
	for i := 0; i < 20; i++ {
		g.fair.Tick()
	}
	g.fair.Release("ext")

	// Saturate the node and its queue.
	g.b.Submit(batchJob(30 * time.Minute))
	g.sim.RunFor(2 * time.Minute)
	for i := 0; i < 2; i++ {
		g.sites[0].Queue().Submit(batch.Request{
			ID: fmt.Sprintf("fill%d", i), Nodes: 1,
			RunCB: simclock.Blocking(g.sim, func(ctx *batch.ExecCtx) { ctx.SleepOrKilled(30 * time.Minute) }),
		})
	}
	g.sim.RunFor(time.Minute)

	hGreedy, _ := g.b.Submit(Request{Job: &jdl.Job{Executable: "g", NodeNumber: 1}, User: "greedy", CPU: time.Minute})
	g.sim.RunFor(time.Minute)
	hNice, _ := g.b.Submit(Request{Job: &jdl.Job{Executable: "n", NodeNumber: 1}, User: "nice", CPU: time.Minute})
	g.sim.RunFor(time.Minute)
	if g.b.PendingBatch() != 2 {
		t.Fatalf("pending = %d, want 2", g.b.PendingBatch())
	}

	var order []string
	hNice.FirstOutput.OnFire(func() { order = append(order, "nice") })
	hGreedy.FirstOutput.OnFire(func() { order = append(order, "greedy") })
	g.sim.RunFor(6 * time.Hour)
	if hGreedy.State() != Done || hNice.State() != Done {
		t.Fatalf("states: greedy=%v nice=%v (%v/%v)", hGreedy.State(), hNice.State(), hGreedy.Err(), hNice.Err())
	}
	if len(order) != 2 || order[0] != "nice" {
		t.Fatalf("dispatch order = %v, want nice first (fair-share ordering)", order)
	}
}
