package broker

import (
	"errors"
	"fmt"
	"math/rand"
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

// grid bundles a small simulated grid.
type grid struct {
	sim   *simclock.Sim
	info  *infosys.Service
	fair  *fairshare.Manager
	b     *Broker
	sites []*site.Site
}

func newGrid(t *testing.T, nSites, nodesPerSite int, cfg Config) *grid {
	t.Helper()
	return newGridOn(t, nSites, nodesPerSite, cfg, nil)
}

// newGridOn is newGrid with the index deployed by index (nil for a
// plain one) before the broker is built, which reads it accordingly.
func newGridOn(t *testing.T, nSites, nodesPerSite int, cfg Config, index func(*infosys.Service)) *grid {
	t.Helper()
	sim := simclock.NewSim(time.Time{})
	info := infosys.New(sim, 500*time.Millisecond)
	if index != nil {
		index(info)
	}
	fair := fairshare.New(sim, fairshare.Config{HalfLife: time.Hour, UpdateInterval: time.Minute})
	cfg.Sim = sim
	cfg.Info = info
	if cfg.Fair == nil {
		cfg.Fair = fair
	}
	b := New(cfg)
	g := &grid{sim: sim, info: info, fair: fair, b: b}
	for i := 0; i < nSites; i++ {
		st := site.New(sim, site.Config{
			Name:     fmt.Sprintf("site%02d", i),
			Nodes:    nodesPerSite,
			Network:  netsim.CampusGrid(),
			Costs:    site.DefaultCosts(),
			LRMCycle: 2 * time.Second,
		})
		b.RegisterSite(st)
		g.sites = append(g.sites, st)
	}
	return g
}

func batchJob(cpu time.Duration) Request {
	return Request{
		Job:  &jdl.Job{Executable: "batch_app", NodeNumber: 1},
		User: "batchuser",
		CPU:  cpu,
	}
}

func interactiveJob(access jdl.MachineAccess, pl int, nodes int) Request {
	return Request{
		Job: &jdl.Job{
			Executable:      "inter_app",
			Interactive:     true,
			NodeNumber:      nodes,
			Access:          access,
			PerformanceLoss: pl,
			Flavor:          jdl.Sequential,
		},
		User: "interuser",
		CPU:  time.Second,
	}
}

func TestBatchJobRunsViaAgent(t *testing.T) {
	g := newGrid(t, 2, 2, Config{})
	h, err := g.b.Submit(batchJob(30 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	g.sim.RunFor(30 * time.Minute)
	if h.State() != Done {
		t.Fatalf("state = %v err = %v", h.State(), h.Err())
	}
	if h.Phases.Discovery != 500*time.Millisecond {
		t.Fatalf("discovery = %v", h.Phases.Discovery)
	}
	if h.Phases.Selection <= 0 {
		t.Fatalf("selection = %v", h.Phases.Selection)
	}
	// Batch submission pays gatekeeper + agent staging; it is the
	// slowest path in Table I.
	if h.Phases.Submission < 20*time.Second {
		t.Fatalf("batch submission = %v, want > 20s (agent staging)", h.Phases.Submission)
	}
	// The agent leaves after the payload completes.
	if g.b.FreeAgents() != 0 {
		t.Fatalf("agents lingering: %d", g.b.FreeAgents())
	}
}

func TestAgentRegisteredWhileBatchRuns(t *testing.T) {
	g := newGrid(t, 1, 1, Config{})
	g.b.Submit(batchJob(time.Hour))
	g.sim.RunFor(2 * time.Minute)
	if g.b.FreeAgents() != 1 {
		t.Fatalf("FreeAgents = %d while batch runs", g.b.FreeAgents())
	}
}

// TestFreeAgentListExact holds the free-agent list to its claim: it
// lists exactly the live agents with a free interactive VM, in ID
// order. FreeAgents and FreeInteractiveVMs read only the list, so once
// per simulated minute they are checked against a scan of the registry
// while shared jobs come and go, agents are killed and a site crash
// evicts the agents on it.
func TestFreeAgentListExact(t *testing.T) {
	g := newGrid(t, 4, 4, Config{Seed: 3, AgentDegree: 2, AgentHeartbeat: 5 * time.Second})
	rng := rand.New(rand.NewSource(1))
	batch := func() {
		if _, err := g.b.Submit(batchJob(time.Duration(20+rng.Intn(100)) * time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		batch()
	}
	var shared []*Handle
	kills, evicted, sawFree := 0, 0, 0
	for minute := 1; minute <= 180; minute++ {
		switch {
		case minute == 60:
			for a := range g.b.agents {
				if a.Site() == g.sites[1] {
					evicted++
				}
			}
			g.sites[1].Crash()
			g.sim.AfterFunc(2*time.Minute, g.sites[1].Restart)
		case minute%20 == 0:
			batch()
		case minute%7 == 0:
			if g.b.KillAgentAt(g.sites[rng.Intn(len(g.sites))].Name()) {
				kills++
			}
		case minute%2 == 0:
			req := interactiveJob(jdl.SharedAccess, 50, 1+rng.Intn(2))
			if req.Job.NodeNumber > 1 {
				req.Job.Flavor = jdl.MPICHG2
			}
			req.CPU = time.Duration(1+rng.Intn(10)) * time.Minute
			h, err := g.b.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			shared = append(shared, h)
		}
		g.sim.RunFor(time.Minute)

		free, vms := 0, 0
		for a := range g.b.agents {
			if a.Free() {
				free++
			}
			vms += a.FreeSlots()
		}
		if got := g.b.FreeAgents(); got != free {
			t.Fatalf("minute %d: FreeAgents = %d, the registry has %d free agents", minute, got, free)
		}
		if got := g.b.freeInteractiveVMs(); got != vms {
			t.Fatalf("minute %d: FreeInteractiveVMs = %d, the registry has %d free VMs", minute, got, vms)
		}
		for i, a := range g.b.freeAgents {
			if _, ok := g.b.agents[a]; !ok || a.Released().Fired() {
				t.Fatalf("minute %d: free list holds %s, which has left", minute, a.ID())
			}
			if i > 0 && g.b.freeAgents[i-1].ID() >= a.ID() {
				t.Fatalf("minute %d: free list out of ID order: %s before %s", minute, g.b.freeAgents[i-1].ID(), a.ID())
			}
		}
		if free > 0 {
			sawFree++
		}
	}
	done := 0
	for _, h := range shared {
		if h.State() == Done {
			done++
		}
	}
	if kills == 0 || evicted == 0 || sawFree < 30 || done < len(shared)/2 {
		t.Fatalf("too quiet to test the list: %d kills, %d agents evicted, free agents in %d minutes, %d of %d shared jobs done",
			kills, evicted, sawFree, done, len(shared))
	}
	t.Logf("%d kills, %d agents evicted, free agents in %d minutes, %d of %d shared jobs done",
		kills, evicted, sawFree, done, len(shared))
}

// TestDiscoveryChargesQueryLatency: a discovery query costs the
// index's QueryLatency, charged by the broker before it reads the
// registry, and the wait is the job's discovery phase.
func TestDiscoveryChargesQueryLatency(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	b := New(Config{Sim: sim, Info: infosys.New(sim, 250*time.Millisecond)})
	b.RegisterSite(site.New(sim, site.Config{
		Name: "site00", Nodes: 1, Network: netsim.CampusGrid(), Costs: site.DefaultCosts(), LRMCycle: 2 * time.Second,
	}))
	h, err := b.Submit(interactiveJob(jdl.ExclusiveAccess, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	sim.RunFor(10 * time.Minute)
	if h.State() != Done {
		t.Fatalf("state = %v err = %v", h.State(), h.Err())
	}
	if h.Phases.Discovery != 250*time.Millisecond {
		t.Fatalf("discovery = %v, want the index's 250ms query cost", h.Phases.Discovery)
	}
}

func TestInteractiveExclusivePhases(t *testing.T) {
	g := newGrid(t, 20, 2, Config{})
	h, err := g.b.Submit(interactiveJob(jdl.ExclusiveAccess, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	g.sim.RunFor(10 * time.Minute)
	if h.State() != Done {
		t.Fatalf("state = %v err = %v", h.State(), h.Err())
	}
	if h.Phases.Discovery != 500*time.Millisecond {
		t.Fatalf("discovery = %v, want 0.5s", h.Phases.Discovery)
	}
	// Selection contacts all 20 sites individually (~150ms RTT-ish
	// each): the paper reports ~3s for 20 sites.
	if h.Phases.Selection < time.Second || h.Phases.Selection > 6*time.Second {
		t.Fatalf("selection = %v, want ~3s for 20 sites", h.Phases.Selection)
	}
	// Submission traverses Globus layers and the local queue: ~17s.
	if h.Phases.Submission < 10*time.Second || h.Phases.Submission > 25*time.Second {
		t.Fatalf("submission = %v, want ~17s", h.Phases.Submission)
	}
	if h.Shared() {
		t.Fatal("exclusive job marked shared")
	}
}

func TestInteractiveSharedFasterThanExclusive(t *testing.T) {
	g := newGrid(t, 4, 1, Config{})
	// Occupy one machine with a long batch job -> free agent appears.
	g.b.Submit(batchJob(2 * time.Hour))
	g.sim.RunFor(2 * time.Minute)
	if g.b.FreeAgents() != 1 {
		t.Fatalf("FreeAgents = %d", g.b.FreeAgents())
	}

	hs, err := g.b.Submit(interactiveJob(jdl.SharedAccess, 10, 1))
	if err != nil {
		t.Fatal(err)
	}
	g.sim.RunFor(10 * time.Minute)
	if hs.State() != Done {
		t.Fatalf("shared state = %v err = %v", hs.State(), hs.Err())
	}
	if !hs.Shared() {
		t.Fatal("job not placed on an interactive VM")
	}
	// No information-system discovery for the VM path.
	if hs.Phases.Discovery != 0 {
		t.Fatalf("shared discovery = %v, want 0 (local registry)", hs.Phases.Discovery)
	}

	he, err := g.b.Submit(interactiveJob(jdl.ExclusiveAccess, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	g.sim.RunFor(10 * time.Minute)
	if he.State() != Done {
		t.Fatalf("exclusive state = %v err = %v", he.State(), he.Err())
	}
	if hs.Phases.Submission >= he.Phases.Submission {
		t.Fatalf("shared submission %v not faster than exclusive %v",
			hs.Phases.Submission, he.Phases.Submission)
	}
	// Table I headline: shared-mode startup more than 2x faster.
	if 2*hs.Phases.Submission >= he.Phases.Submission {
		t.Fatalf("shared %v not >2x faster than exclusive %v",
			hs.Phases.Submission, he.Phases.Submission)
	}
}

func TestSharedFallsBackToFreshAgent(t *testing.T) {
	g := newGrid(t, 2, 1, Config{})
	h, err := g.b.Submit(interactiveJob(jdl.SharedAccess, 10, 1))
	if err != nil {
		t.Fatal(err)
	}
	g.sim.RunFor(10 * time.Minute)
	if h.State() != Done {
		t.Fatalf("state = %v err = %v", h.State(), h.Err())
	}
	if !h.Shared() {
		t.Fatal("fallback did not use an interactive VM")
	}
}

// TestSharedPlacementHonoursRequirements covers the Requirements branch
// of shared-VM placement. Free agents on a site the job's Requirements
// reject are never chosen, and the clause is decided on the site's
// published record, the row matchmaking reads, not on its live queue.
func TestSharedPlacementHonoursRequirements(t *testing.T) {
	// hostSites runs a shared two-node job and reports the sites of the
	// agents it was placed on.
	hostSites := func(t *testing.T, g *grid, requirements string) (*Handle, []string) {
		t.Helper()
		job := mustParseJob(t, `Executable = "mpi"; JobType = {"interactive", "mpich-g2"};
NodeNumber = 2; MachineAccess = "shared"; PerformanceLoss = 10;
Requirements = `+requirements+`;`)
		var hosts []string
		var h *Handle
		h, err := g.b.Submit(Request{Job: job, User: "u", Body: func(rc *RunContext, done func()) {
			for a, ps := range g.b.agents {
				for _, p := range ps {
					if p.h == h {
						hosts = append(hosts, a.Site().Name())
					}
				}
			}
			rc.Output(64, done)
		}})
		if err != nil {
			t.Fatal(err)
		}
		g.sim.RunFor(time.Hour)
		return h, hosts
	}
	grid := func(t *testing.T, memoryMB ...int) *grid {
		t.Helper()
		sim := simclock.NewSim(time.Time{})
		info := infosys.New(sim, 500*time.Millisecond)
		g := &grid{sim: sim, info: info, b: New(Config{Sim: sim, Info: info, Seed: 7})}
		for i, mem := range memoryMB {
			st := site.New(sim, site.Config{
				Name: fmt.Sprintf("site%02d", i), Nodes: 2, Network: netsim.CampusGrid(),
				Costs: site.DefaultCosts(), LRMCycle: 2 * time.Second,
				// Published once at registration: FreeCPUs stays 2 in the
				// registry while agents take the nodes.
				PublishInterval: 10000 * time.Hour,
				Attrs:           map[string]any{"Arch": "i686", "MemoryMB": mem},
			})
			g.b.RegisterSite(st)
			g.sites = append(g.sites, st)
		}
		// Long batch jobs put a glide-in agent, and its free interactive
		// VM, on every node.
		for range 2 * len(memoryMB) {
			g.b.Submit(batchJob(4 * time.Hour))
			g.sim.RunFor(2 * time.Minute)
		}
		if got := g.b.FreeAgents(); got != 2*len(memoryMB) {
			t.Fatalf("FreeAgents = %d, want one per node (%d)", got, 2*len(memoryMB))
		}
		return g
	}

	t.Run("memory", func(t *testing.T) {
		g := grid(t, 256, 1024)
		h, hosts := hostSites(t, g, `other.MemoryMB >= 512`)
		if h.State() != Done || !h.Shared() {
			t.Fatalf("state = %v shared = %v err = %v", h.State(), h.Shared(), h.Err())
		}
		if len(hosts) != 2 || hosts[0] != "site01" || hosts[1] != "site01" {
			t.Fatalf("placed on %v, want both subjobs on site01's agents", hosts)
		}
	})

	// Live, the site has no free node (its agents hold both); published,
	// it has two. Only the published view admits the agents.
	t.Run("published-view", func(t *testing.T) {
		g := grid(t, 512)
		if live := g.sites[0].Record().FreeCPUs; live != 0 {
			t.Fatalf("live FreeCPUs = %d, want 0", live)
		}
		h, hosts := hostSites(t, g, `other.FreeCPUs >= 2`)
		if h.State() != Done || !h.Shared() || len(hosts) != 2 {
			t.Fatalf("state = %v shared = %v hosts = %v err = %v; want placed on the published view",
				h.State(), h.Shared(), hosts, h.Err())
		}
	})
}

func TestInteractiveFailsWhenGridFull(t *testing.T) {
	g := newGrid(t, 1, 1, Config{})
	// Fill the single node with an interactive job (its VM is busy).
	h1, _ := g.b.Submit(Request{
		Job:  interactiveJob(jdl.SharedAccess, 0, 1).Job,
		User: "u1",
		Body: func(rc *RunContext, done func()) {
			rc.Output(64, func() { rc.Sim.AfterFunc(time.Hour, done) })
		},
	})
	g.sim.RunFor(5 * time.Minute)
	if h1.State() != Running {
		t.Fatalf("h1 state = %v err=%v", h1.State(), h1.Err())
	}
	// A second interactive job must fail: never preempt interactive.
	h2, _ := g.b.Submit(interactiveJob(jdl.SharedAccess, 0, 1))
	g.sim.RunFor(5 * time.Minute)
	if h2.State() != Failed || !errors.Is(h2.Err(), ErrNoResources) {
		t.Fatalf("h2 state = %v err = %v", h2.State(), h2.Err())
	}
}

func TestBatchQueuesInBrokerWhenSaturated(t *testing.T) {
	g := newGrid(t, 1, 1, Config{RetryInterval: time.Minute})
	// Saturate: one batch running (via agent), queue capacity 2 filled.
	g.b.Submit(batchJob(20 * time.Minute))
	g.sim.RunFor(2 * time.Minute)
	for i := 0; i < 2; i++ {
		g.sites[0].Queue().Submit(batch.Request{
			ID: fmt.Sprintf("filler%d", i), Nodes: 1,
			RunCB: holdCB(g.sim, 20*time.Minute),
		})
	}
	g.sim.RunFor(time.Minute)

	h, _ := g.b.Submit(batchJob(time.Minute))
	g.sim.RunFor(2 * time.Minute)
	if h.State() == Failed {
		t.Fatalf("batch failed instead of queuing: %v", h.Err())
	}
	if g.b.PendingBatch() != 1 {
		t.Fatalf("PendingBatch = %d", g.b.PendingBatch())
	}
	// Eventually resources free up and the job completes.
	g.sim.RunFor(3 * time.Hour)
	if h.State() != Done {
		t.Fatalf("queued batch never ran: %v / %v", h.State(), h.Err())
	}
}

func TestOnLineSchedulingResubmits(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	info := infosys.New(sim, 500*time.Millisecond)
	b := New(Config{Sim: sim, Info: info, QueueTimeout: 5 * time.Second})
	var sites []*site.Site
	for i := 0; i < 2; i++ {
		st := site.New(sim, site.Config{
			Name: fmt.Sprintf("site%02d", i), Nodes: 1,
			Network: netsim.CampusGrid(), Costs: site.DefaultCosts(), LRMCycle: 2 * time.Second,
			// site00 ranks higher so it is always tried first.
			Attrs: map[string]any{"Arch": "i686", "OS": "linux", "SiteIndex": 1 - i},
		})
		b.RegisterSite(st)
		sites = append(sites, st)
	}
	// Sneak a local job into site00's queue so the broker's view
	// (free=1) is stale by the time its job reaches the LRM.
	sites[0].Queue().Submit(batch.Request{
		ID: "local", Nodes: 1,
		RunCB: holdCB(sim, time.Hour),
	})
	req := interactiveJob(jdl.ExclusiveAccess, 0, 1)
	rank, err := jdl.ParseJob(`Executable="x"; Rank = other.SiteIndex;`)
	if err != nil {
		t.Fatal(err)
	}
	req.Job.Rank = rank.Rank
	h, err := b.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunFor(30 * time.Minute)
	if h.State() != Done {
		t.Fatalf("state = %v err = %v", h.State(), h.Err())
	}
	if h.Resubmissions() == 0 {
		t.Fatal("expected at least one resubmission")
	}
	if h.Site() != "site01" {
		t.Fatalf("ran on %s, want site01 after resubmission", h.Site())
	}
}

func TestLeasePreventsDoubleAllocation(t *testing.T) {
	g := newGrid(t, 1, 1, Config{LeaseDuration: time.Minute})
	h1, _ := g.b.Submit(interactiveJob(jdl.ExclusiveAccess, 0, 1))
	h2, _ := g.b.Submit(interactiveJob(jdl.ExclusiveAccess, 0, 1))
	g.sim.RunFor(30 * time.Minute)
	done, failed := 0, 0
	for _, h := range []*Handle{h1, h2} {
		switch h.State() {
		case Done:
			done++
		case Failed:
			failed++
		}
	}
	if done != 1 || failed != 1 {
		t.Fatalf("done=%d failed=%d (states %v/%v errs %v/%v)",
			done, failed, h1.State(), h2.State(), h1.Err(), h2.Err())
	}
}

func TestRandomizedSelectionVariesWithSeed(t *testing.T) {
	pick := func(seed int64) string {
		g := newGrid(t, 8, 1, Config{Seed: seed})
		h, _ := g.b.Submit(interactiveJob(jdl.ExclusiveAccess, 0, 1))
		g.sim.RunFor(10 * time.Minute)
		if h.State() != Done {
			t.Fatalf("seed %d: %v %v", seed, h.State(), h.Err())
		}
		return h.Site()
	}
	first := pick(1)
	varied := false
	for seed := int64(2); seed <= 8; seed++ {
		if pick(seed) != first {
			varied = true
			break
		}
	}
	if !varied {
		t.Fatal("selection identical across 8 seeds; randomization missing")
	}
}

func TestYieldedBatchReclassified(t *testing.T) {
	g := newGrid(t, 1, 1, Config{})
	hb, _ := g.b.Submit(batchJob(5 * time.Hour))
	g.sim.RunFor(2 * time.Minute)
	if hb.State() != Running {
		t.Fatalf("batch state = %v", hb.State())
	}
	usageBefore := g.fair.Usage("batchuser")

	hi, _ := g.b.Submit(Request{
		Job:  interactiveJob(jdl.SharedAccess, 25, 1).Job,
		User: "interuser",
		Body: func(rc *RunContext, done func()) {
			rc.Output(1, func() { rc.Slots[0].Start(time.Minute).WaitThen(done) })
		},
	})
	g.sim.RunFor(30 * time.Second)
	if hi.State() != Running {
		t.Fatalf("interactive state = %v err=%v", hi.State(), hi.Err())
	}
	usageDuring := g.fair.Usage("batchuser")
	if !(usageDuring < usageBefore) {
		t.Fatalf("batch usage not reduced while yielding: %v -> %v", usageBefore, usageDuring)
	}
	g.sim.RunFor(30 * time.Minute)
	if hi.State() != Done {
		t.Fatalf("interactive never finished: %v %v", hi.State(), hi.Err())
	}
	usageAfter := g.fair.Usage("batchuser")
	if usageAfter != usageBefore {
		t.Fatalf("batch usage not restored: %v -> %v", usageBefore, usageAfter)
	}
}

func TestMPIG2AcrossAgents(t *testing.T) {
	g := newGrid(t, 3, 1, Config{})
	// Three batch jobs -> three agents (staggered so each matchmaking
	// pass sees the previous allocation).
	for i := 0; i < 3; i++ {
		g.b.Submit(Request{Job: &jdl.Job{Executable: "b", NodeNumber: 1}, User: "u", CPU: 5 * time.Hour})
		g.sim.RunFor(2 * time.Minute)
	}
	if g.b.FreeAgents() != 3 {
		t.Fatalf("FreeAgents = %d", g.b.FreeAgents())
	}
	job := &jdl.Job{
		Executable:      "mpi_app",
		Interactive:     true,
		Flavor:          jdl.MPICHG2,
		NodeNumber:      3,
		Access:          jdl.SharedAccess,
		PerformanceLoss: 10,
	}
	var slotsSeen int
	h, err := g.b.Submit(Request{
		Job: job, User: "mpiuser",
		Body: func(rc *RunContext, done func()) {
			slotsSeen = len(rc.Slots)
			rc.Output(64, func() {
				all := rc.Sim.NewTrigger()
				n := len(rc.Slots)
				for _, s := range rc.Slots {
					tr := s.Start(10 * time.Second)
					tr.OnFire(func() {
						n--
						if n == 0 {
							all.Fire()
						}
					})
				}
				all.WaitThen(done)
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	g.sim.RunFor(30 * time.Minute)
	if h.State() != Done {
		t.Fatalf("state = %v err = %v", h.State(), h.Err())
	}
	if slotsSeen != 3 {
		t.Fatalf("body saw %d slots, want 3", slotsSeen)
	}
	if h.Site() != "agents" {
		t.Fatalf("site = %q", h.Site())
	}
	if g.b.FreeAgents() != 3 {
		t.Fatalf("agents not freed: %d", g.b.FreeAgents())
	}
}

func TestRequirementsFilterSites(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	info := infosys.New(sim, 100*time.Millisecond)
	b := New(Config{Sim: sim, Info: info})
	fast := site.New(sim, site.Config{Name: "fastsite", Nodes: 1, Network: netsim.CampusGrid(),
		Costs: site.DefaultCosts(), Attrs: map[string]any{"Arch": "x86_64", "OS": "linux", "MemoryMB": 2048}})
	slow := site.New(sim, site.Config{Name: "slowsite", Nodes: 1, Network: netsim.CampusGrid(),
		Costs: site.DefaultCosts(), Attrs: map[string]any{"Arch": "i686", "OS": "linux", "MemoryMB": 256}})
	b.RegisterSite(fast)
	b.RegisterSite(slow)

	j, err := jdl.ParseJob(`
Executable    = "app";
JobType       = {"interactive", "sequential"};
Requirements  = other.MemoryMB >= 1024;
`)
	if err != nil {
		t.Fatal(err)
	}
	h, err := b.Submit(Request{Job: j, User: "u", CPU: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	sim.RunFor(30 * time.Minute)
	if h.State() != Done {
		t.Fatalf("state = %v err = %v", h.State(), h.Err())
	}
	if h.Site() != "fastsite" {
		t.Fatalf("ran on %s, want fastsite", h.Site())
	}
}

func TestSubmitValidation(t *testing.T) {
	g := newGrid(t, 1, 1, Config{})
	if _, err := g.b.Submit(Request{}); err == nil {
		t.Fatal("nil job accepted")
	}
	if _, err := g.b.Submit(Request{Job: &jdl.Job{}}); err == nil {
		t.Fatal("invalid job accepted")
	}
}

// TestNoSitesFailsCleanly: on an empty registry every attempt kind
// fails because nothing matches, not because the grid is full.
func TestNoSitesFailsCleanly(t *testing.T) {
	for _, c := range []struct {
		name string
		req  Request
	}{
		{"batch", batchJob(time.Second)},
		{"exclusive interactive", interactiveJob(jdl.ExclusiveAccess, 0, 1)},
		{"shared interactive", interactiveJob(jdl.SharedAccess, 50, 1)},
	} {
		t.Run(c.name, func(t *testing.T) {
			sim := simclock.NewSim(time.Time{})
			b := New(Config{Sim: sim, Info: infosys.New(sim, 0)})
			h, _ := b.Submit(c.req)
			sim.RunFor(time.Minute)
			if h.State() != Failed || !errors.Is(h.Err(), ErrNoMatch) {
				t.Fatalf("state = %v err = %v", h.State(), h.Err())
			}
		})
	}
}
