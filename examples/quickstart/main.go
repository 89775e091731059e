// Quickstart: build a simulated grid, submit the paper's Figure 2 job
// plus a batch job, and watch the CrossBroker's interactive machinery
// at work — agent provisioning, shared-mode placement on an
// interactive VM, and the phase timings of Table I.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"crossbroker/internal/core"
	"crossbroker/internal/fairshare"
	"crossbroker/internal/netsim"
)

func main() {
	// A small grid: two campus sites, two across the WAN.
	sys := core.NewSystem(core.SystemConfig{
		Sites: []core.SiteSpec{
			{Name: "uab", Nodes: 4},
			{Name: "campus2", Nodes: 2},
			{Name: "ifca", Nodes: 4, Network: netsim.WideArea()},
			{Name: "cyfronet", Nodes: 8, Network: netsim.WideArea()},
		},
		Seed:      42,
		FairShare: &fairshare.Config{},
	})

	// 1. A batch job. The broker submits it together with a glide-in
	//    agent, which splits its worker node into a batch VM and an
	//    interactive VM (Section 5.2).
	batch, err := sys.SubmitJDL(`
Executable = "hep_reconstruction";
JobType    = "batch";
`, "/O=UAB/CN=alice", 2*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	sys.Run(3 * time.Minute)
	fmt.Printf("batch job:        %-8s on %-8s (an agent now offers its node's interactive VM)\n",
		batch.State(), batch.Site())
	fmt.Printf("free interactive VMs: %d\n\n", sys.Broker.FreeAgents())

	// 2. The paper's Figure 2 job, upgraded to shared access: it lands
	//    on the interactive VM immediately — no discovery, no
	//    selection, no gatekeeper, no queue.
	inter, err := sys.SubmitJDL(`
Executable      = "interactive_mpich-g2_app";
JobType         = {"interactive", "sequential"};
Arguments       = "-n";
StreamingMode   = "reliable";
MachineAccess   = "shared";
PerformanceLoss = 10;
`, "/O=UAB/CN=bob", 30*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	if !sys.RunUntilDone(inter, time.Hour) {
		log.Fatalf("interactive job stuck: %v / %v", inter.State(), inter.Err())
	}
	fmt.Printf("interactive job:  %-8s on %-8s shared=%v\n", inter.State(), inter.Site(), inter.Shared())
	fmt.Printf("  discovery:  %8.2fs (local agent registry)\n", inter.Phases.Discovery.Seconds())
	fmt.Printf("  selection:  %8.2fs\n", inter.Phases.Selection.Seconds())
	fmt.Printf("  submission: %8.2fs to first output (paper's Table I: 6.79s)\n\n",
		inter.Phases.Submission.Seconds())

	// 3. The same job in exclusive mode pays the full Globus path:
	//    MDS discovery, per-site selection, gatekeeper, local queue.
	excl, err := sys.SubmitJDL(`
Executable    = "interactive_mpich-g2_app";
JobType       = {"interactive", "sequential"};
MachineAccess = "exclusive";
`, "/O=UAB/CN=bob", 30*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	if !sys.RunUntilDone(excl, time.Hour) {
		log.Fatalf("exclusive job stuck: %v / %v", excl.State(), excl.Err())
	}
	fmt.Printf("exclusive job:    %-8s on %-8s\n", excl.State(), excl.Site())
	fmt.Printf("  discovery:  %8.2fs (paper: ~0.5s)\n", excl.Phases.Discovery.Seconds())
	fmt.Printf("  selection:  %8.2fs (paper: ~3s for 20 sites)\n", excl.Phases.Selection.Seconds())
	fmt.Printf("  submission: %8.2fs to first output (paper: 17.2s)\n\n", excl.Phases.Submission.Seconds())

	// 4. Fair share: priorities worsen with af-weighted usage over
	//    time (equation 1). Alice's batch job is still holding its
	//    node; Bob's interactive jobs were short but were charged at
	//    the higher interactive application factor while they ran.
	sys.Run(2 * time.Minute)
	fmt.Printf("fair-share priorities (higher = worse):\n")
	for _, u := range []string{"/O=UAB/CN=alice", "/O=UAB/CN=bob"} {
		fmt.Printf("  %-18s %.5f\n", u, sys.Fair.Priority(u))
	}
}
