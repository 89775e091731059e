package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageErrorsExitTwo pins that a command line naming nothing to
// run fails loudly instead of succeeding vacuously: an unknown -exp
// value lists the valid ones, -out or -baseline without the one
// experiment they belong to is refused, and the removed -exp bench,
// -engine, -scaleout and -nowall are errors, so scripts written against
// them stop.
func TestUsageErrorsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "tabel1"}, `unknown experiment "tabel1" (valid: table1, load, day,`},
		{[]string{"-exp", ""}, `unknown experiment ""`},
		{[]string{"-exp", "bench"}, `unknown experiment "bench"`},
		{[]string{"-exp", "replay", "-synth", "100", "-nowall"}, "flag provided but not defined: -nowall"},
		{[]string{"-exp", "replay", "-engine", "goroutine"}, "flag provided but not defined: -engine"},
		{[]string{"-exp", "scale", "-scaleout", "x.json"}, "flag provided but not defined: -scaleout"},
		{[]string{"-exp", "all", "-out", "x.json"}, "-out and -baseline name one experiment's report"},
		{[]string{"-baseline", "BENCH_infosys.json"}, "-out and -baseline name one experiment's report"},
	} {
		var stderr bytes.Buffer
		if code := realMain(tc.args, &stderr); code != 2 {
			t.Errorf("gridbench %v exited %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("gridbench %v stderr = %q, want it to contain %q", tc.args, stderr.String(), tc.want)
		}
	}
}

// TestCompareBaseline pins the one gate's rules in both directions:
// only a shared row that moved the wrong way beyond tolerance fails;
// new rows, removed rows and non-positive baselines never do.
func TestCompareBaseline(t *testing.T) {
	base := []benchRow{{"a", 100}, {"b", 100}, {"gone", 100}, {"zero", 0}}
	rows := []benchRow{{"a", 120}, {"b", 70}, {"new", 1}, {"zero", 50}}
	lower := gate{exp: "x", noun: "row", width: 8, values: "%.0f -> %.0f"}
	if err := compareBaseline(lower, rows, base, "f.json", 0.25); err != nil {
		t.Fatalf("a grew 20%% within a 25%% tolerance, b shrank: %v", err)
	}
	err := compareBaseline(lower, rows, base, "f.json", 0.10)
	if err == nil || !strings.Contains(err.Error(), "x: 1 row(s) regressed beyond 10% vs f.json: [a]") {
		t.Fatalf("lower-is-better gate at 10%%: %v", err)
	}
	higher := lower
	higher.higherIsBetter = true
	err = compareBaseline(higher, rows, base, "f.json", 0.25)
	if err == nil || !strings.Contains(err.Error(), "[b]") {
		t.Fatalf("higher-is-better gate at 25%%: %v", err)
	}
}
