package main

import (
	"encoding/json"
	"fmt"
	"os"
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
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	if traceout != "" {
		if err := exportFederationTraces(traceout, pts); err != nil {
			return err
		}
	}
	if baseline != "" {
		return compareFederation(pts, baseline, tolerance)
	}
	return nil
}

func federationKey(p experiments.FederationPoint) string {
	return fmt.Sprintf("%s/k=%d/rate=%.2g", p.Topology, p.K, p.FaultRate)
}

// compareFederation loads a committed federationReport and flags
// regressions: any cell present in both runs whose goodput dropped by
// more than tolerance fails the comparison. New or removed cells are
// reported but never fail (the gate must not block resizing the
// sweep).
func compareFederation(results []experiments.FederationPoint, baseline string, tolerance float64) error {
	data, err := os.ReadFile(baseline)
	if err != nil {
		return err
	}
	var base federationReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("federation: parsing baseline %s: %w", baseline, err)
	}
	old := make(map[string]experiments.FederationPoint, len(base.Points))
	for _, p := range base.Points {
		old[federationKey(p)] = p
	}
	var regressed []string
	for _, p := range results {
		key := federationKey(p)
		b, ok := old[key]
		if !ok {
			fmt.Printf("  %-24s new cell, no baseline\n", key)
			continue
		}
		if b.GoodputPct <= 0 {
			continue
		}
		delta := (b.GoodputPct - p.GoodputPct) / b.GoodputPct
		verdict := "ok"
		if delta > tolerance {
			verdict = "REGRESSED"
			regressed = append(regressed, key)
		}
		fmt.Printf("  %-24s goodput %5.1f%% -> %5.1f%% (%+.1f%%) %s\n",
			key, b.GoodputPct, p.GoodputPct, -100*delta, verdict)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("federation: %d cell(s) regressed beyond %.0f%% vs %s: %v",
			len(regressed), 100*tolerance, baseline, regressed)
	}
	fmt.Printf("no regressions beyond %.0f%% vs %s\n", 100*tolerance, baseline)
	return nil
}

// exportFederationTraces re-checks every cell's merged multi-broker
// log against the trace invariants and writes the logs as one JSONL
// stream.
func exportFederationTraces(path string, pts []experiments.FederationPoint) error {
	traces := make([]trace.Trace, 0, len(pts))
	events := 0
	for _, p := range pts {
		if v := trace.CheckComplete(p.Trace.Events); len(v) != 0 {
			return fmt.Errorf("federation: %s: %d trace invariant violations, first: %s",
				p.Trace.Label, len(v), v[0])
		}
		events += len(p.Trace.Events)
		traces = append(traces, p.Trace)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteJSONL(f, traces); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d cells, %d events, invariants clean)\n", path, len(traces), events)
	return nil
}
