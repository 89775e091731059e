package main

import (
	"fmt"

	"crossbroker/internal/experiments"
	"crossbroker/internal/trace"
)

// federation runs the federation chaos sweep and writes
// BENCH_federation.json: federated brokers under chaos, per topology ×
// offload headroom × fault rate. Every cell has already asserted the safety
// contract (merged-trace invariants, zero leaked leases, zero open
// transfer leases); this command re-checks the grid-wide totals,
// renders the table, and optionally gates against a committed
// baseline. Fully deterministic for a fixed seed: two runs produce
// byte-identical reports (and, with -traceout, byte-identical merged
// event logs).
func federation(o options) error {
	pts, err := experiments.FederationSweep(experiments.FederationConfig{
		Seed: o.seed, Quick: o.quick, Traced: o.traceout != "",
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
	rep := newSweepReport("federation", o, pts)
	if err := writeReport(o.out, rep); err != nil {
		return err
	}
	traceOf := func(p experiments.FederationPoint) trace.Trace { return p.Trace }
	if err := exportTraces("federation", o.traceout, pts, traceOf, nil); err != nil {
		return err
	}
	return gateReport(federationGate, rep, federationRows, o)
}

func federationKey(p experiments.FederationPoint) string {
	return fmt.Sprintf("%s/k=%d/rate=%.2g", p.Topology, p.K, p.FaultRate)
}

// federationGate gates per-cell goodput: a drop of more than tolerance
// fails.
var federationGate = gate{exp: "federation", noun: "cell", higherIsBetter: true,
	width: 24, values: "goodput %5.1f%% -> %5.1f%%"}

func federationRows(rep sweepReport[experiments.FederationPoint]) []benchRow {
	rows := make([]benchRow, len(rep.Points))
	for i, p := range rep.Points {
		rows[i] = benchRow{federationKey(p), p.GoodputPct}
	}
	return rows
}
