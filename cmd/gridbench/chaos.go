package main

import (
	"fmt"

	"crossbroker/internal/experiments"
	"crossbroker/internal/trace"
)

// chaos runs the failure-rate sweep and writes BENCH_chaos.json: broker
// failure recovery under the deterministic fault layer, per injected
// failure rate.
// The sweep is fully deterministic for a fixed seed: two runs produce
// byte-identical point lists (and, with -traceout, byte-identical
// event logs). A non-empty -traceout enables per-cell tracing, checks
// every cell's log against the trace invariants, and exports the logs
// as JSONL. With -delta set, each cell's index keeps delta logs, so the
// broker subscribes, and infosys partition windows are injected, so
// the exported traces carry DeltaPublished/SubscriptionGap events and
// the checker's staleness invariant has something to bite on.
func chaos(o options) error {
	pts, err := experiments.ChaosSweep(experiments.ChaosConfig{
		Seed: o.seed, Quick: o.quick, Traced: o.traceout != "", Delta: o.delta,
	})
	if err != nil {
		return err
	}
	fmt.Println("Chaos — broker recovery vs injected failure rate")
	fmt.Println(experiments.RenderChaos(pts))
	for _, p := range pts {
		if p.Done+p.Aborted != p.Submitted {
			return fmt.Errorf("rate %.2g left non-terminal jobs (%d done, %d aborted, %d submitted)",
				p.CrashRate, p.Done, p.Aborted, p.Submitted)
		}
		if p.LeakedLeases != 0 {
			return fmt.Errorf("rate %.2g leaked %d leases", p.CrashRate, p.LeakedLeases)
		}
	}
	if err := writeReport(o.out, newSweepReport("chaos", o, pts)); err != nil {
		return err
	}
	return exportTraces(o.traceout, pts, func(p experiments.ChaosPoint) trace.Trace { return p.Trace }, nil)
}
