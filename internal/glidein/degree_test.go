package glidein

import (
	"errors"
	"math"
	"testing"
	"time"

	"crossbroker/internal/batch"
	"crossbroker/internal/simclock"
)

func launchDegree(t *testing.T, sim *simclock.Sim, degree int, withBatch bool) *Agent {
	t.Helper()
	st := newSite(sim, 1)
	var payload *BatchPayload
	if withBatch {
		payload = &BatchPayload{ID: "b", Owner: "u", Work: 100 * time.Hour}
	}
	var agent *Agent
	LaunchAsync(sim, st, payload, 0, Options{Degree: degree}, func(a *Agent, _ *batch.Handle, err error) {
		if err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		agent = a
	})
	sim.RunFor(time.Minute)
	if agent == nil || agent.Node() == nil {
		t.Fatal("agent did not start")
	}
	return agent
}

func TestDegreeDefaultsToOne(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	a := launchDegree(t, sim, 0, true)
	if a.Degree() != 1 || a.FreeSlots() != 1 {
		t.Fatalf("degree=%d free=%d", a.Degree(), a.FreeSlots())
	}
}

func TestDegreeNHostsNJobs(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	a := launchDegree(t, sim, 3, true)
	if a.FreeSlots() != 3 {
		t.Fatalf("FreeSlots = %d", a.FreeSlots())
	}
	var errs [4]error
	sim.Go(func() {
		for i := 0; i < 4; i++ {
			_, errs[i] = a.StartInteractive(InteractiveJob{
				ID: string(rune('a' + i)), PerformanceLoss: 10,
				RunCB: simclock.Blocking(sim, func(ctx *InteractiveContext) { ctx.Slot.Run(time.Minute) }),
			})
		}
	})
	sim.RunFor(time.Second)
	for i := 0; i < 3; i++ {
		if errs[i] != nil {
			t.Fatalf("job %d rejected: %v", i, errs[i])
		}
	}
	if !errors.Is(errs[3], ErrBusy) {
		t.Fatalf("4th job on degree-3 agent: %v", errs[3])
	}
	if a.Running() != 3 || a.FreeSlots() != 0 {
		t.Fatalf("running=%d free=%d", a.Running(), a.FreeSlots())
	}
}

func TestDegreeTwoJobsShareCPUEvenly(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	a := launchDegree(t, sim, 2, false)
	var e1, e2 time.Duration
	sim.Go(func() {
		d1, err := a.StartInteractive(InteractiveJob{ID: "i1", PerformanceLoss: 10,
			RunCB: simclock.Blocking(sim, func(ctx *InteractiveContext) {
				t0 := ctx.Sim.Now()
				ctx.Slot.Run(10 * time.Second)
				e1 = ctx.Sim.Since(t0)
			})})
		if err != nil {
			t.Errorf("i1: %v", err)
			return
		}
		d2, err := a.StartInteractive(InteractiveJob{ID: "i2", PerformanceLoss: 10,
			RunCB: simclock.Blocking(sim, func(ctx *InteractiveContext) {
				t0 := ctx.Sim.Now()
				ctx.Slot.Run(10 * time.Second)
				e2 = ctx.Sim.Since(t0)
			})})
		if err != nil {
			t.Errorf("i2: %v", err)
			return
		}
		d1.Wait()
		d2.Wait()
	})
	sim.RunFor(time.Hour)
	// Two equal-share interactive VMs: each 10s burst takes ~20s.
	for _, e := range []time.Duration{e1, e2} {
		if math.Abs(e.Seconds()-20) > 0.5 {
			t.Fatalf("elapsed %v / %v, want ~20s each", e1, e2)
		}
	}
}

func TestBatchShareUsesMostRestrictivePL(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	a := launchDegree(t, sim, 2, true)
	var yields []int
	a.OnYield = func(_ string, pl int) { yields = append(yields, pl) }
	restored := 0
	a.OnRestore = func(string) { restored++ }

	sim.Go(func() {
		d1, _ := a.StartInteractive(InteractiveJob{ID: "i1", PerformanceLoss: 25,
			RunCB: simclock.Blocking(sim, func(ctx *InteractiveContext) { ctx.Slot.Run(10 * time.Second) })})
		d2, _ := a.StartInteractive(InteractiveJob{ID: "i2", PerformanceLoss: 10,
			RunCB: simclock.Blocking(sim, func(ctx *InteractiveContext) { ctx.Slot.Run(40 * time.Second) })})
		d1.Wait()
		d2.Wait()
	})
	sim.RunFor(time.Hour)
	// First yield at PL=25, tightened to 10 when the second job lands.
	if len(yields) < 2 || yields[0] != 25 || yields[1] != 10 {
		t.Fatalf("yields = %v", yields)
	}
	// After i1 ends, share stays at min of remaining (10); restore only
	// after both finish.
	if restored != 1 {
		t.Fatalf("restored %d times, want 1", restored)
	}
	if a.batchVM.Tickets() != 100 {
		t.Fatalf("batch tickets = %d after all interactive done", a.batchVM.Tickets())
	}
}

func TestDuplicateInteractiveIDRejected(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	a := launchDegree(t, sim, 2, true)
	var err2 error
	sim.Go(func() {
		a.StartInteractive(InteractiveJob{ID: "same", PerformanceLoss: 0,
			RunCB: simclock.Blocking(sim, func(ctx *InteractiveContext) { ctx.Slot.Run(time.Minute) })})
		_, err2 = a.StartInteractive(InteractiveJob{ID: "same"})
	})
	sim.RunFor(time.Second)
	if err2 == nil {
		t.Fatal("duplicate interactive id accepted")
	}
}

func TestAgentLeavesOnlyAfterAllInteractiveDone(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	a := launchDegree(t, sim, 2, false) // no batch: leaves when idle
	sim.Go(func() {
		d1, _ := a.StartInteractive(InteractiveJob{ID: "short", PerformanceLoss: 0,
			RunCB: simclock.Blocking(sim, func(ctx *InteractiveContext) { ctx.Slot.Run(time.Second) })})
		a.StartInteractive(InteractiveJob{ID: "long", PerformanceLoss: 0,
			RunCB: simclock.Blocking(sim, func(ctx *InteractiveContext) { ctx.Slot.Run(time.Hour) })})
		d1.Wait()
		if a.Released().Fired() {
			t.Error("agent left while the long job still runs")
		}
	})
	sim.RunFor(30 * time.Minute)
	if a.Released().Fired() {
		t.Fatal("agent left early")
	}
	sim.RunFor(2 * time.Hour)
	if !a.Released().Fired() {
		t.Fatal("agent never left")
	}
}
