package glidein

import (
	"errors"
	"math"
	"testing"
	"time"

	"crossbroker/internal/batch"
	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
	"crossbroker/internal/site"
	"crossbroker/internal/vmslot"
)

func newSite(sim *simclock.Sim, nodes int) *site.Site {
	return site.New(sim, site.Config{
		Name:     "s1",
		Nodes:    nodes,
		Network:  netsim.CampusGrid(),
		Costs:    site.DefaultCosts(),
		LRMCycle: time.Second,
	})
}

// launchReady launches an agent and runs the sim until it holds a node.
func launchReady(t *testing.T, sim *simclock.Sim, st *site.Site, payload *BatchPayload) *Agent {
	t.Helper()
	var agent *Agent
	LaunchAsync(sim, st, payload, 0, Options{}, func(a *Agent, _ *batch.Handle, err error) {
		if err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		agent = a
	})
	sim.RunFor(time.Minute)
	if agent == nil || agent.Node() == nil {
		t.Fatal("agent did not acquire a node")
	}
	return agent
}

func TestAgentAcquiresNodeAndCreatesVMs(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	st := newSite(sim, 1)
	a := launchReady(t, sim, st, &BatchPayload{ID: "b1", Owner: "u", Work: time.Hour})
	if !a.Free() {
		t.Fatal("fresh agent not free")
	}
	if st.Queue().FreeNodeCount() != 0 {
		t.Fatal("agent does not hold the node in the LRM's view")
	}
	if a.BatchJobID() != "b1" {
		t.Fatalf("batch id = %q", a.BatchJobID())
	}
}

func TestAgentLeavesAfterBatchCompletes(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	st := newSite(sim, 1)
	a := launchReady(t, sim, st, &BatchPayload{ID: "b", Owner: "u", Work: 10 * time.Second})
	sim.RunFor(time.Hour)
	if !a.Released().Fired() {
		t.Fatal("agent still holds machine after batch completion")
	}
	if st.Queue().FreeNodeCount() != 1 {
		t.Fatal("node not freed after agent left")
	}
	if a.Free() {
		t.Fatal("released agent reports Free")
	}
}

func TestInteractiveSharesCPUPerPerformanceLoss(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	st := newSite(sim, 1)
	a := launchReady(t, sim, st, &BatchPayload{ID: "b", Owner: "u", Work: 10 * time.Hour})

	var elapsed time.Duration
	sim.Go(func() {
		done, err := a.StartInteractive(InteractiveJob{
			ID: "i1", Owner: "v", PerformanceLoss: 25,
			RunCB: simclock.Blocking(sim, func(ctx *InteractiveContext) {
				t0 := ctx.Sim.Now()
				ctx.Slot.Run(10 * time.Second)
				elapsed = ctx.Sim.Since(t0)
			}),
		})
		if err != nil {
			t.Errorf("start interactive: %v", err)
			return
		}
		done.Wait()
	})
	sim.RunFor(2 * time.Hour)
	// 10s of CPU at 100:25 → ~12.5s elapsed.
	want := 12.5
	if math.Abs(elapsed.Seconds()-want) > 0.2 {
		t.Fatalf("interactive burst took %.2fs, want ~%.1fs", elapsed.Seconds(), want)
	}
}

func TestBatchPriorityRestoredAfterInteractive(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	st := newSite(sim, 1)
	a := launchReady(t, sim, st, &BatchPayload{ID: "b", Owner: "u", Work: 10 * time.Hour})

	var yielded, restored []string
	a.OnYield = func(id string, pl int) { yielded = append(yielded, id) }
	a.OnRestore = func(id string) { restored = append(restored, id) }
	freed := 0
	a.OnFree = func(*Agent) { freed++ }

	sim.Go(func() {
		done, err := a.StartInteractive(InteractiveJob{
			ID: "i", Owner: "v", PerformanceLoss: 10,
			RunCB: simclock.Blocking(sim, func(ctx *InteractiveContext) { ctx.Slot.Run(time.Second) }),
		})
		if err != nil {
			t.Errorf("start: %v", err)
			return
		}
		done.Wait()
	})
	sim.RunFor(time.Minute)
	if len(yielded) != 1 || yielded[0] != "b" {
		t.Fatalf("yielded = %v", yielded)
	}
	if len(restored) != 1 || restored[0] != "b" {
		t.Fatalf("restored = %v", restored)
	}
	if freed != 1 {
		t.Fatalf("OnFree fired %d times", freed)
	}
	if !a.Free() {
		t.Fatal("agent not free after interactive completion")
	}
}

func TestInteractiveVMExclusive(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	st := newSite(sim, 1)
	a := launchReady(t, sim, st, &BatchPayload{ID: "b", Owner: "u", Work: 10 * time.Hour})
	var second error
	sim.Go(func() {
		a.StartInteractive(InteractiveJob{ID: "i1", PerformanceLoss: 0,
			RunCB: simclock.Blocking(sim, func(ctx *InteractiveContext) { ctx.Slot.Run(time.Hour) })})
		_, second = a.StartInteractive(InteractiveJob{ID: "i2"})
	})
	sim.RunFor(time.Minute)
	if !errors.Is(second, ErrBusy) {
		t.Fatalf("second interactive job: %v, want ErrBusy", second)
	}
}

func TestAgentWithoutBatchLeavesAfterInteractive(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	st := newSite(sim, 1)
	a := launchReady(t, sim, st, nil)
	sim.Go(func() {
		done, err := a.StartInteractive(InteractiveJob{
			ID: "i", PerformanceLoss: 0,
			RunCB: simclock.Blocking(sim, func(ctx *InteractiveContext) { ctx.Slot.Run(5 * time.Second) }),
		})
		if err != nil {
			t.Errorf("start: %v", err)
			return
		}
		done.Wait()
	})
	sim.RunFor(time.Hour)
	if !a.Released().Fired() {
		t.Fatal("agent lingered after its only job finished")
	}
	if st.Queue().FreeNodeCount() != 1 {
		t.Fatal("node not freed")
	}
}

func TestStartInteractiveOnReleasedAgent(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	st := newSite(sim, 1)
	a := launchReady(t, sim, st, &BatchPayload{ID: "b", Owner: "u", Work: time.Second})
	sim.RunFor(time.Hour) // batch done, agent gone
	var err error
	sim.Go(func() { _, err = a.StartInteractive(InteractiveJob{ID: "i"}) })
	sim.RunFor(time.Minute)
	if !errors.Is(err, ErrReleased) {
		t.Fatalf("err = %v, want ErrReleased", err)
	}
}

func TestAgentEvictionFiresReleased(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	st := newSite(sim, 1)
	var handleID string
	var agent *Agent
	LaunchAsync(sim, st, &BatchPayload{ID: "b", Owner: "u", Work: 10 * time.Hour}, 0, Options{}, func(a *Agent, h *batch.Handle, err error) {
		if err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		agent, handleID = a, h.ID()
	})
	sim.RunFor(time.Minute)
	if agent == nil || agent.Node() == nil {
		t.Fatal("agent not started")
	}
	st.Queue().Kill(handleID)
	sim.RunFor(time.Minute)
	if !agent.Released().Fired() {
		t.Fatal("eviction did not fire Released")
	}
	if st.Queue().FreeNodeCount() != 1 {
		t.Fatal("node not freed after eviction")
	}
}

func TestInteractiveAloneOverheadNegligible(t *testing.T) {
	// Figure 8: exclusive vs shared-alone indistinguishable. Compare a
	// burst on a bare machine vs on an agent's interactive VM with no
	// batch job.
	bare := func() time.Duration {
		sim := simclock.NewSim(time.Time{})
		m := vmslot.NewMachine(sim)
		s := m.NewSlot("job", 100)
		var el time.Duration
		sim.Go(func() {
			t0 := sim.Now()
			s.Run(921 * time.Millisecond)
			el = sim.Since(t0)
		})
		sim.Run()
		return el
	}()

	sim := simclock.NewSim(time.Time{})
	st := newSite(sim, 1)
	a := launchReady(t, sim, st, nil)
	var shared time.Duration
	sim.Go(func() {
		done, _ := a.StartInteractive(InteractiveJob{ID: "i", PerformanceLoss: 10,
			RunCB: simclock.Blocking(sim, func(ctx *InteractiveContext) {
				t0 := ctx.Sim.Now()
				ctx.Slot.Run(921 * time.Millisecond)
				shared = ctx.Sim.Since(t0)
			})})
		done.Wait()
	})
	sim.RunFor(time.Hour)
	if bare != shared {
		t.Fatalf("shared-alone %v != exclusive %v", shared, bare)
	}
}
