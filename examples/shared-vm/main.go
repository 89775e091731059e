// Shared VM: the multiprogramming mechanism of Section 5.2 in action.
// A batch job owns a worker node through a glide-in agent; an
// interactive job lands on the node's interactive VM, the batch job's
// CPU share drops to the interactive job's PerformanceLoss, and is
// restored when the interactive job leaves. The printed numbers show
// Figure 8's headline result: the interactive job's measured slowdown
// tracks the PerformanceLoss attribute, while the fair-share system
// compensates the batch job's owner for yielding.
//
// Run with: go run ./examples/shared-vm
package main

import (
	"fmt"
	"log"
	"time"

	"crossbroker/internal/broker"
	"crossbroker/internal/core"
	"crossbroker/internal/fairshare"
	"crossbroker/internal/jdl"
)

func main() {
	sys := core.NewSystem(core.SystemConfig{
		Sites: []core.SiteSpec{{Name: "uab", Nodes: 1}}, // one node: sharing is the only option
		Seed:  7,
		FairShare: &fairshare.Config{
			HalfLife:       10 * time.Minute,
			UpdateInterval: 2 * time.Second, // fine-grained ticks so short jobs accrue
		},
	})

	// The batch job acquires the node via its agent.
	hb, err := sys.SubmitJDL(`Executable = "monte_carlo"; JobType = "batch";`,
		"/CN=batchowner", 6*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	sys.Run(3 * time.Minute)
	fmt.Printf("batch job %s on %s; free interactive VMs: %d\n\n",
		hb.State(), hb.Site(), sys.Broker.FreeAgents())

	for _, pl := range []int{0, 10, 25} {
		elapsed := runInteractive(sys, pl)
		ideal := 10 * (1 + float64(pl)/100)
		fmt.Printf("PerformanceLoss %2d%%: 10s CPU burst took %6.2fs (proportional ideal %5.2fs)\n",
			pl, elapsed.Seconds(), ideal)
	}

	sys.Run(5 * time.Minute)
	fmt.Printf("\nfair-share priorities after the session (higher = worse):\n")
	fmt.Printf("  batch owner       %.5f  (compensated while yielding)\n", sys.Fair.Priority("/CN=batchowner"))
	fmt.Printf("  interactive user  %.5f  (charged af = 2 - PL/100)\n", sys.Fair.Priority("/CN=interuser"))
}

// runInteractive places a 10s CPU burst on the interactive VM at the
// given PerformanceLoss and returns its elapsed (virtual) time.
func runInteractive(sys *core.System, pl int) time.Duration {
	var elapsed time.Duration
	h, err := sys.Submit(broker.Request{
		Job: &jdl.Job{
			Executable:      "analysis",
			Interactive:     true,
			NodeNumber:      1,
			Access:          jdl.SharedAccess,
			PerformanceLoss: pl,
		},
		User: "/CN=interuser",
		Body: func(rc *broker.RunContext) {
			rc.Output(64)
			start := rc.Sim.Now()
			rc.Slots[0].Run(10 * time.Second)
			elapsed = rc.Sim.Since(start)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if !sys.RunUntilDone(h, time.Hour) {
		log.Fatalf("interactive job stuck: %v / %v", h.State(), h.Err())
	}
	return elapsed
}
