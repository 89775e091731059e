package simclock_test

import (
	"fmt"
	"time"

	"crossbroker/internal/simclock"
)

// Example schedules two jobs' completions in virtual time: hours of
// simulated waiting complete instantly and deterministically.
func Example() {
	sim := simclock.NewSim(time.Time{})
	start := sim.Now()

	sim.Post(func() {
		sim.AfterFunc(2*time.Hour, func() {
			fmt.Printf("batch job done at +%v\n", sim.Since(start))
		})
	})
	sim.Post(func() {
		sim.AfterFunc(5*time.Second, func() {
			fmt.Printf("interactive job done at +%v\n", sim.Since(start))
		})
	})

	sim.Run()
	// Output:
	// interactive job done at +5s
	// batch job done at +2h0m0s
}
