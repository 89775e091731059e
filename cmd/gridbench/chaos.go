package main

import (
	"fmt"
	"runtime"

	"crossbroker/internal/experiments"
	"crossbroker/internal/trace"
)

// chaosReport is the BENCH_chaos.json document: broker failure
// recovery under the deterministic fault layer, per injected failure
// rate.
type chaosReport struct {
	GeneratedBy string                   `json:"generated_by"`
	GoVersion   string                   `json:"go_version"`
	Seed        int64                    `json:"seed"`
	Quick       bool                     `json:"quick"`
	Points      []experiments.ChaosPoint `json:"points"`
}

// chaos runs the failure-rate sweep and writes BENCH_chaos.json.
// The sweep is fully deterministic for a fixed seed: two runs produce
// byte-identical point lists (and, with -traceout, byte-identical
// event logs). A non-empty traceout enables per-cell tracing, checks
// every cell's log against the trace invariants, and exports the logs
// as JSONL. With delta set, each cell's index keeps delta logs, so the
// broker subscribes, and infosys partition windows are injected, so
// the exported traces carry DeltaPublished/SubscriptionGap events and
// the checker's staleness invariant has something to bite on.
func chaos(out, traceout string, quick, delta bool, seed int64) error {
	pts, err := experiments.ChaosSweep(experiments.ChaosConfig{
		Seed: seed, Quick: quick, Traced: traceout != "", Delta: delta,
	})
	if err != nil {
		return err
	}
	fmt.Println("Chaos — broker recovery vs injected failure rate")
	fmt.Println(experiments.RenderChaos(pts))
	for _, p := range pts {
		if p.Done+p.Aborted != p.Submitted {
			return fmt.Errorf("chaos: rate %.2g left non-terminal jobs (%d done, %d aborted, %d submitted)",
				p.CrashRate, p.Done, p.Aborted, p.Submitted)
		}
		if p.LeakedLeases != 0 {
			return fmt.Errorf("chaos: rate %.2g leaked %d leases", p.CrashRate, p.LeakedLeases)
		}
	}
	rep := chaosReport{
		GeneratedBy: "gridbench -exp chaos",
		GoVersion:   runtime.Version(),
		Seed:        seed,
		Quick:       quick,
		Points:      pts,
	}
	if err := writeReport(out, rep); err != nil {
		return err
	}
	if traceout != "" {
		return exportTraces("chaos", traceout, pts, func(p experiments.ChaosPoint) trace.Trace { return p.Trace }, nil)
	}
	return nil
}
