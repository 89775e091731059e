package vmslot_test

import (
	"fmt"
	"time"

	"crossbroker/internal/simclock"
	"crossbroker/internal/vmslot"
)

// Example divides a node's CPU between an interactive VM (100
// tickets) and a batch VM holding the PerformanceLoss attribute's
// worth of tickets (25): the 10-second interactive burst takes ~12.5
// seconds, exactly the paper's Figure 8 control behaviour.
func Example() {
	sim := simclock.NewSim(time.Time{})
	node := vmslot.NewMachine(sim)
	interactive := node.NewSlot("interactive-vm", 100)
	batch := node.NewSlot("batch-vm", 25)

	batch.Start(10 * time.Hour) // resident batch load

	sim.Post(func() {
		start := sim.Now()
		interactive.Start(10 * time.Second).WaitThen(func() {
			fmt.Printf("10s burst took %.1fs\n", sim.Since(start).Seconds())
		})
	})
	sim.RunFor(time.Minute)
	// Output: 10s burst took 12.5s
}
