package main

import (
	"fmt"
	"runtime"

	"crossbroker/internal/experiments"
	"crossbroker/internal/trace"
)

// federationReport is the BENCH_federation.json document: federated
// brokers under chaos, per topology × offload headroom × fault rate.
type federationReport struct {
	GeneratedBy string                        `json:"generated_by"`
	GoVersion   string                        `json:"go_version"`
	Seed        int64                         `json:"seed"`
	Quick       bool                          `json:"quick"`
	Points      []experiments.FederationPoint `json:"points"`
}

// federation runs the federation chaos sweep and writes
// BENCH_federation.json. Every cell has already asserted the safety
// contract (merged-trace invariants, zero leaked leases, zero open
// transfer leases); this command re-checks the grid-wide totals,
// renders the table, and optionally gates against a committed
// baseline. Fully deterministic for a fixed seed: two runs produce
// byte-identical reports (and, with -traceout, byte-identical merged
// event logs).
func federation(out, baseline, traceout string, quick bool, seed int64, tolerance float64) error {
	pts, err := experiments.FederationSweep(experiments.FederationConfig{
		Seed: seed, Quick: quick, Traced: traceout != "",
	})
	if err != nil {
		return err
	}
	fmt.Println("Federation — offloading brokers vs injected failure rate")
	fmt.Println(experiments.RenderFederation(pts))
	for _, p := range pts {
		key := federationKey(p)
		if p.Done+p.Failed != p.Submitted {
			return fmt.Errorf("federation: %s left non-terminal jobs (%d done, %d failed, %d submitted)",
				key, p.Done, p.Failed, p.Submitted)
		}
		if p.LeakedLeases != 0 {
			return fmt.Errorf("federation: %s leaked %d leases grid-wide", key, p.LeakedLeases)
		}
		if p.OpenTransfers != 0 {
			return fmt.Errorf("federation: %s left %d transfer leases open", key, p.OpenTransfers)
		}
	}
	rep := federationReport{
		GeneratedBy: "gridbench -exp federation",
		GoVersion:   runtime.Version(),
		Seed:        seed,
		Quick:       quick,
		Points:      pts,
	}
	if err := writeReport(out, rep); err != nil {
		return err
	}
	if traceout != "" {
		traceOf := func(p experiments.FederationPoint) trace.Trace { return p.Trace }
		if err := exportTraces("federation", traceout, pts, traceOf, nil); err != nil {
			return err
		}
	}
	if baseline != "" {
		return gateReport(federationGate, rep, federationRows, baseline, tolerance)
	}
	return nil
}

func federationKey(p experiments.FederationPoint) string {
	return fmt.Sprintf("%s/k=%d/rate=%.2g", p.Topology, p.K, p.FaultRate)
}

// federationGate gates per-cell goodput: a drop of more than tolerance
// fails.
var federationGate = gate{exp: "federation", noun: "cell", higherIsBetter: true,
	width: 24, values: "goodput %5.1f%% -> %5.1f%%"}

func federationRows(rep federationReport) []benchRow {
	rows := make([]benchRow, len(rep.Points))
	for i, p := range rep.Points {
		rows[i] = benchRow{federationKey(p), p.GoodputPct}
	}
	return rows
}
