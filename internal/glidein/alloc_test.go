package glidein

import (
	"testing"
	"time"

	"crossbroker/internal/simclock"
)

// TestStartInteractiveAllocs: an interactive job on a ready agent, from
// StartInteractive to its completion trigger firing, costs three
// allocations: the job's record, which holds its context and its
// trigger, the record's one bound continuation, and the VM's slot. A
// slot name built from the job's ID, a trigger, a context, a cleanup
// closure and a posted closure of their own cost six.
func TestStartInteractiveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sim := simclock.NewSim(time.Time{})
	a := launchReady(t, sim, newSite(sim, 1), &BatchPayload{ID: "b", Owner: "u", Work: 1000 * time.Hour})
	body := func(_ *InteractiveContext, done func()) { done() }
	run := func() {
		done, err := a.StartInteractive(InteractiveJob{ID: "i", PerformanceLoss: 10, RunCB: body})
		if err != nil {
			t.Fatal(err)
		}
		sim.RunFor(time.Second)
		if !done.Fired() {
			t.Fatal("interactive job did not finish")
		}
	}
	run() // warm-up: the machine's slot list, the event free list
	if got := testing.AllocsPerRun(200, run); got != 3 {
		t.Errorf("interactive job on a ready agent: %v allocations, want 3", got)
	}
}
