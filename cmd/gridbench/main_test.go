package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestUsageErrorsExitTwo pins that a command line naming nothing to
// run fails loudly instead of succeeding vacuously: an unknown -exp
// value lists the valid ones, -out, -baseline or -traceout without the
// one experiment they belong to is refused (under -exp all each traced
// sweep would overwrite the one -traceout file), a flag the named
// experiment does not read is refused, -tolerance without the
// -baseline it bounds is refused, -fetch takes no other flag, and
// the removed -exp bench, -engine, -scaleout and -nowall are errors,
// so scripts written against them stop.
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
		{[]string{"-traceout", "x.jsonl"}, "-traceout names one experiment's event log"},
		{[]string{"-exp", "table1", "-traceout", "x.jsonl"}, "-exp table1 does not read -traceout"},
		{[]string{"-exp", "fig8", "-quick"}, "-exp fig8 does not read -quick"},
		{[]string{"-exp", "replay", "-synth", "100", "-delta"}, "-exp replay does not read -delta"},
		{[]string{"-exp", "chaos", "-quick", "-baseline", "BENCH_chaos.json"}, "-exp chaos does not read -baseline"},
		{[]string{"-exp", "all", "-synth", "100"}, "-exp all does not read -synth"},
		{[]string{"-exp", "scale", "-quick", "-tolerance", "0.01"}, "-tolerance bounds the -baseline gate"},
		{[]string{"-fetch", "http://localhost:1/x.swf", "-exp", "replay"}, "-fetch reads no other flag"},
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
	lower := gate{noun: "row", width: 8, values: "%.0f -> %.0f"}
	if err := compareBaseline(lower, rows, base, "f.json", 0.25); err != nil {
		t.Fatalf("a grew 20%% within a 25%% tolerance, b shrank: %v", err)
	}
	err := compareBaseline(lower, rows, base, "f.json", 0.10)
	if err == nil || !strings.Contains(err.Error(), "1 row(s) regressed beyond 10% vs f.json: [a]") {
		t.Fatalf("lower-is-better gate at 10%%: %v", err)
	}
	higher := lower
	higher.higherIsBetter = true
	err = compareBaseline(higher, rows, base, "f.json", 0.25)
	if err == nil || !strings.Contains(err.Error(), "[b]") {
		t.Fatalf("higher-is-better gate at 25%%: %v", err)
	}
}

// TestTableReadsEveryFlag holds the experiment table and the flag set
// to each other: every flag is global, -fetch, or read by some
// experiment, so none is dead, and every flag a row names exists.
func TestTableReadsEveryFlag(t *testing.T) {
	fs := flagSet(&options{}, io.Discard)
	fs.VisitAll(func(f *flag.Flag) {
		read := slices.ContainsFunc(table, func(e experiment) bool { return slices.Contains(e.reads, f.Name) })
		if !read && f.Name != "fetch" && !slices.Contains(global, f.Name) {
			t.Errorf("no experiment reads -%s", f.Name)
		}
	})
	for _, e := range table {
		for _, name := range e.reads {
			if fs.Lookup(name) == nil {
				t.Errorf("-exp %s reads -%s, which is not a flag", e.name, name)
			}
		}
	}
}

// TestDocCommandLinesPassTheTable parses, without running it, every
// gridbench command line with -exp in README.md and EXPERIMENTS.md, so
// the docs cannot show a flag the named experiment does not read.
func TestDocCommandLinesPassTheTable(t *testing.T) {
	placeholder := regexp.MustCompile(`\$\([^)]*\)|<log>`)
	for _, doc := range []string{"../../README.md", "../../EXPERIMENTS.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := placeholder.ReplaceAllString(strings.ReplaceAll(string(data), "\\\n", " "), "PLACEHOLDER")
		found := 0
		for _, line := range strings.Split(text, "\n") {
			for _, cmd := range strings.Split(line, "gridbench ")[1:] {
				cmd, _, _ = strings.Cut(cmd, "`")
				cmd, _, _ = strings.Cut(cmd, " #")
				args := strings.Fields(strings.ReplaceAll(cmd, `"`, ""))
				if !slices.Contains(args, "-exp") {
					continue
				}
				found++
				var stderr bytes.Buffer
				if _, err := parse(args, &stderr); err != nil {
					t.Errorf("%s: gridbench %s: %s", doc, strings.Join(args, " "), stderr.String())
				}
			}
		}
		if found == 0 {
			t.Errorf("%s: no gridbench -exp command line found", doc)
		}
	}
}
