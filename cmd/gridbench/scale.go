package main

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"

	"crossbroker/internal/experiments"
)

// parseList parses the comma-separated list that flag name holds
// (-churn or -speedups), skipping empty items; parse reports whether
// it accepts an item.
func parseList[T any](name, s string, parse func(string) (T, bool)) ([]T, error) {
	var out []T
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		v, ok := parse(p)
		if !ok {
			return nil, fmt.Errorf("%s: bad value %q", name, p)
		}
		out = append(out, v)
	}
	return out, nil
}

// scaleReport is the BENCH_infosys.json document. Every measurement in
// it is deterministic — virtual-time pass latencies, counters from the
// pass itself, minimum-across-passes allocation counts taken on a
// single scheduler thread with the collector off — so two runs of the
// same binary produce byte-identical files, which CI checks.
type scaleReport struct {
	GeneratedBy string                   `json:"generated_by"`
	GoVersion   string                   `json:"go_version"`
	Results     []experiments.ScalePoint `json:"results"`
}

// scaleExp runs the information-system scaling sweep (-exp scale) and
// writes BENCH_infosys.json. It fails outright if the paged pass is
// slower than the unbounded "snapshot" cell at 1,000 sites or the delta
// pass slower than it at 50,000, and — when a committed
// baseline is supplied — if any shared point's pass latency grew
// beyond tolerance (the CI regression gate, same 25% default as the
// matchmaking benchmarks).
func scaleExp(o options) error {
	churn, err := parseList("-churn", o.churn, func(p string) (int, bool) {
		v, err := strconv.Atoi(p)
		return v, err == nil && v >= 0
	})
	if err != nil {
		return err
	}
	cfg := experiments.ScaleConfig{
		Shards: o.shards, PageSize: o.pagesize, Seed: o.seed,
		ChurnRates: churn, ChurnSites: o.churnsites, DeltaLogDepth: o.deltadepth,
	}
	if o.quick {
		// The 50k point stays in the smoke run: the headline claim —
		// delta flat where snapshot grows linearly — is only visible
		// at the top of the size axis.
		cfg.Points = []int{100, 250, 1000, 50000}
		cfg.ChurnRates = []int{64}
	}
	pts, err := experiments.ScaleSweep(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Information-system scaling — snapshot vs paged top-K vs delta-subscription pass")
	fmt.Println(experiments.RenderScale(pts))

	byKey := make(map[string]experiments.ScalePoint, len(pts))
	for _, p := range pts {
		byKey[experiments.ScalePointKey(p)] = p
	}
	if paged, ok := byKey["paged/sites=1000"]; ok {
		if snap, ok := byKey["snapshot/sites=1000"]; ok && paged.PassMicros > snap.PassMicros {
			return fmt.Errorf("paged pass slower than snapshot pass at 1000 sites (%dµs > %dµs)",
				paged.PassMicros, snap.PassMicros)
		}
	}
	// 64 is the size axis's churn per pass.
	if delta, ok := byKey["delta/sites=50000/churn=64"]; ok {
		if snap, ok := byKey["snapshot/sites=50000"]; ok && delta.PassMicros >= snap.PassMicros {
			return fmt.Errorf("delta pass not faster than snapshot pass at 50000 sites (%dµs >= %dµs)",
				delta.PassMicros, snap.PassMicros)
		}
	}

	rep := scaleReport{
		GeneratedBy: "gridbench -exp scale",
		GoVersion:   runtime.Version(),
		Results:     pts,
	}
	if err := writeReport(o.out, rep); err != nil {
		return err
	}
	return gateReport(scaleGate, rep, scaleRows, o)
}

// scaleGate gates every point's virtual pass latency: growth beyond
// tolerance fails.
var scaleGate = gate{noun: "point", width: 24, values: "%10.0fµs -> %10.0fµs"}

func scaleRows(rep scaleReport) []benchRow {
	rows := make([]benchRow, len(rep.Results))
	for i, p := range rep.Results {
		rows[i] = benchRow{experiments.ScalePointKey(p), float64(p.PassMicros)}
	}
	return rows
}
