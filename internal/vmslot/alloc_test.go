package vmslot

import (
	"testing"
	"time"

	"crossbroker/internal/simclock"
)

// TestStartAllocs: an uncontended run, from Start to its completion
// trigger firing, costs one allocation: the run, which carries its
// trigger. The slice timer is a concrete handle and its callback is
// bound once per machine.
func TestStartAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sim := simclock.NewSim(time.Time{})
	s := NewMachine(sim).NewSlot("vm", 100)
	if got := testing.AllocsPerRun(500, func() {
		done := s.Start(time.Second)
		sim.RunFor(2 * time.Second)
		if !done.Fired() {
			t.Fatal("run did not complete")
		}
	}); got != 1 {
		t.Errorf("uncontended Start to completion: %v allocations, want 1 (the run)", got)
	}
}

// TestBurstAllocs: a contended stretch of two runs, sharing the CPU
// until the first completes, costs the two runs and one fused burst,
// whose start and end states keep their two runs inside it (two run
// arrays of their own cost two more).
func TestBurstAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sim := simclock.NewSim(time.Time{})
	m := NewMachine(sim)
	interactive, background := m.NewSlot("interactive-vm", 100), m.NewSlot("batch-vm", 10)
	burst := func() {
		a, b := interactive.Start(time.Second), background.Start(time.Second)
		sim.RunFor(5 * time.Second)
		if !a.Fired() || !b.Fired() {
			t.Fatal("contended burst did not finish")
		}
	}
	burst() // warm-up: the machine's run queue array, the event free list
	if got := testing.AllocsPerRun(200, burst); got != 3 {
		t.Errorf("contended burst: %v allocations, want 3 (the runs and the burst)", got)
	}
}
