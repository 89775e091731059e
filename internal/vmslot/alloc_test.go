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
