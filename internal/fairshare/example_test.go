package fairshare_test

import (
	"fmt"
	"time"

	"crossbroker/internal/fairshare"
	"crossbroker/internal/simclock"
)

// Example shows the Section 5.1 dynamics: an interactive allocation
// worsens its user's priority faster than an equal batch allocation,
// and the priority recovers once resources are released.
func Example() {
	m := fairshare.New(simclock.NewSim(time.Time{}), fairshare.Config{
		HalfLife:       time.Hour,
		UpdateInterval: time.Hour, // beta = 0.5 per tick
	})
	m.SetTotal(10)
	m.Allocate("job-b", "batchuser", 5, fairshare.BatchClass, 0)
	m.Allocate("job-i", "interuser", 5, fairshare.InteractiveClass, 10)
	m.Tick()
	fmt.Printf("batch user: %.3f\n", m.Priority("batchuser"))
	fmt.Printf("inter user: %.3f\n", m.Priority("interuser"))

	m.Release("job-i")
	m.Tick() // one half-life with no usage
	fmt.Printf("inter user after release: %.4f\n", m.Priority("interuser"))
	// Output:
	// batch user: 0.250
	// inter user: 0.475
	// inter user after release: 0.2375
}
