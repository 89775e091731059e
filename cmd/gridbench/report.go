package main

import (
	"encoding/json"
	"fmt"
	"os"

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

// benchRow is one gated number of a report; key names it across runs.
type benchRow struct {
	key   string
	value float64
}

// gate says how one report's rows are worded and judged against a
// committed baseline.
type gate struct {
	exp            string // error prefix: "bench", "scale", ...
	noun           string // what a row is called: "benchmark", "point", "cell", ...
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
		return fmt.Errorf("%s: %d %s(s) regressed beyond %.0f%% vs %s: %v",
			g.exp, len(regressed), g.noun, 100*tolerance, baseline, regressed)
	}
	fmt.Printf("no regressions beyond %.0f%% vs %s\n", 100*tolerance, baseline)
	return nil
}

// gateReport loads the committed report at baseline — the same
// document type rep was just written as — and runs compareBaseline
// over the rows each side yields.
func gateReport[R any](g gate, rep R, rows func(R) []benchRow, baseline string, tolerance float64) error {
	data, err := os.ReadFile(baseline)
	if err != nil {
		return err
	}
	var base R
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: parsing baseline %s: %w", g.exp, baseline, err)
	}
	return compareBaseline(g, rows(rep), rows(base), baseline, tolerance)
}

// exportTraces checks every sweep point's event log against the trace
// invariants — the strict drained-grid checks, or the structural
// subset for a point that partial (may be nil) reports as having left
// jobs pending — and writes the logs as one JSONL stream.
func exportTraces[P any](exp, path string, pts []P, traceOf func(P) trace.Trace, partial func(P) bool) error {
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
			return fmt.Errorf("%s: %s: %d trace invariant violations, first: %s", exp, tr.Label, len(v), v[0])
		}
		events += len(tr.Events)
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
