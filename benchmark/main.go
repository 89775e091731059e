// Command benchmark is the repository's yardstick: four broker
// workloads, end-to-end metrics a user of the simulator sees, and a
// per-layer ledger, measured so that two runs of the same code agree
// on a small shared host. README.md in this directory explains the
// choices; BENCHMARK.json at the repository root is the contract.
//
// It runs three ways:
//
//	benchmark --workload W --seed N --seconds S --trace 0|1
//	    one workload, the driver's protocol: the last line of standard
//	    output is one JSON object with the end-to-end metrics (trace 0)
//	    or the per-layer metrics (trace 1).
//	benchmark -seed N [-aa]
//	    every workload round-robin for fullReps rounds, then the layers
//	    and the traced runs; -aa instead measures twice and compares.
//	benchmark -child W ...
//	    one repetition in this process (what the two modes above spawn).
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "measure one workload and print the driver's JSON line")
	flag.Int64Var(&o.seed, "seed", 2006, "seed every input is generated from (2006 is the reference, 1913 is held out for claims)")
	flag.Float64Var(&o.seconds, "seconds", 32, "with -workload: how long to measure")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	flag.BoolVar(&o.aa, "aa", false, "measure every workload twice on this binary and compare the two against the bounds")
	flag.StringVar(&o.out, "out", "benchmark/out", "directory for span files and per-child temporary files")
	flag.StringVar(&o.child, "child", "", "internal: run one repetition of this workload (or \"layers\") in this process")
	flag.BoolVar(&o.traced, "traced", false, "internal, with -child: trace the run")
	flag.IntVar(&o.scale, "scale", 1, "internal, with -child: divide job counts (the smoke test uses 50)")
	flag.DurationVar(&o.layerLoop, "layer-loop", fullLayerLoop, "internal, with -child layers: shortest timed loop")
	flag.IntVar(&o.layerRounds, "layer-rounds", fullLayerRounds, "internal, with -child layers: rounds per loop, the best counts")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	o.minReps = minReps
	var err error
	switch {
	case o.child != "":
		err = childMain(o)
	case o.workload != "":
		err = driverRun(o)
	case o.aa:
		err = aaRun(o)
	default:
		err = fullRun(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
