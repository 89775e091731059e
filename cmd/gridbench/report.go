package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"

	"crossbroker/internal/trace"
)

// writeReport writes one experiment's BENCH_*.json document.
func writeReport(out string, rep any) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

// writeFile creates path and fills it with write, closing it either way.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sweepReport is the BENCH_*.json document of a seeded sweep: what
// wrote it, the seed and size it ran at, and one entry per sweep point.
type sweepReport[P any] struct {
	GeneratedBy string `json:"generated_by"`
	GoVersion   string `json:"go_version"`
	Seed        int64  `json:"seed"`
	Quick       bool   `json:"quick"`
	Points      []P    `json:"points"`
}

// newSweepReport stamps the points of the sweep gridbench -exp exp ran.
func newSweepReport[P any](exp string, o options, pts []P) sweepReport[P] {
	return sweepReport[P]{GeneratedBy: "gridbench -exp " + exp, GoVersion: runtime.Version(),
		Seed: o.seed, Quick: o.quick, Points: pts}
}

// benchRow is one gated number of a report; key names it across runs.
type benchRow struct {
	key   string
	value float64
}

// gate says how one report's rows are worded and judged against a
// committed baseline.
type gate struct {
	noun           string // what a row is called: "point", "cell", ...
	width          int    // key column width
	values         string // format of "baseline -> new" with the unit
	higherIsBetter bool
}

// compareBaseline is the one regression gate behind -baseline: any row
// present in both runs whose value moved the wrong way by more than
// tolerance (fractional: 0.25 = 25% of the baseline value) fails the
// comparison. Rows with no baseline, a non-positive baseline value, or
// no counterpart in this run are reported or skipped but never fail —
// the gate must not block resizing a sweep or adding coverage.
func compareBaseline(g gate, rows, base []benchRow, baseline string, tolerance float64) error {
	old := make(map[string]float64, len(base))
	for _, r := range base {
		old[r.key] = r.value
	}
	var regressed []string
	for _, r := range rows {
		b, ok := old[r.key]
		if !ok {
			fmt.Printf("  %-*s new %s, no baseline\n", g.width, r.key, g.noun)
			continue
		}
		if b <= 0 {
			continue
		}
		change := (r.value - b) / b
		worse := change
		if g.higherIsBetter {
			worse = -change
		}
		verdict := "ok"
		if worse > tolerance {
			verdict = "REGRESSED"
			regressed = append(regressed, r.key)
		}
		fmt.Printf("  %-*s "+g.values+" (%+.1f%%) %s\n", g.width, r.key, b, r.value, 100*change, verdict)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%d %s(s) regressed beyond %.0f%% vs %s: %v",
			len(regressed), g.noun, 100*tolerance, baseline, regressed)
	}
	fmt.Printf("no regressions beyond %.0f%% vs %s\n", 100*tolerance, baseline)
	return nil
}

// gateReport loads the committed report -baseline names, if any — the
// same document type rep was just written as — and runs
// compareBaseline at -tolerance over the rows each side yields.
func gateReport[R any](g gate, rep R, rows func(R) []benchRow, o options) error {
	if o.baseline == "" {
		return nil
	}
	data, err := os.ReadFile(o.baseline)
	if err != nil {
		return err
	}
	var base R
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", o.baseline, err)
	}
	return compareBaseline(g, rows(rep), rows(base), o.baseline, o.tolerance)
}

// exportTraces checks every sweep point's event log against the trace
// invariants — the strict drained-grid checks, or the structural
// subset for a point that partial (may be nil) reports as having left
// jobs pending — and writes the logs as one JSONL stream to path, if
// -traceout named one.
func exportTraces[P any](path string, pts []P, traceOf func(P) trace.Trace, partial func(P) bool) error {
	if path == "" {
		return nil
	}
	traces := make([]trace.Trace, len(pts))
	events := 0
	for i, p := range pts {
		tr := traceOf(p)
		traces[i] = tr
		check := trace.CheckComplete
		if partial != nil && partial(p) {
			check = trace.Check
		}
		if v := check(tr.Events); len(v) != 0 {
			return fmt.Errorf("%s: %d trace invariant violations, first: %s", tr.Label, len(v), v[0])
		}
		events += len(tr.Events)
	}
	if err := writeFile(path, func(w io.Writer) error { return trace.WriteJSONL(w, traces) }); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d cells, %d events, invariants clean)\n", path, len(traces), events)
	return nil
}
