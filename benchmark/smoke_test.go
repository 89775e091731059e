package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The harness spawns its own binary for every repetition. Under test
// that binary is the test binary, so it must act as the benchmark when
// spawned: the environment variable says so.
const asMainEnv = "CROSSBROKER_BENCHMARK_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) != "" {
		main()
		return
	}
	os.Setenv(asMainEnv, "1")
	os.Exit(m.Run())
}

// captureLine runs the driver's protocol in-process (children are real
// processes) and returns the decoded last line of standard output.
func captureLine(t *testing.T, o options) resultLine {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	got := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		got <- data
	}()
	err = driverRun(o)
	os.Stdout = stdout
	w.Close()
	out := <-got
	if err != nil {
		t.Fatalf("%s trace %d: %v\n%s", o.workload, o.trace, err, out)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var line resultLine
	dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", o.workload, err, lines[len(lines)-1])
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
		t.Fatalf("%s: result %+v", o.workload, line)
	}
	return line
}

func checkMetrics(t *testing.T, workload string, defs []metricDef, nonZero bool, got map[string]metricValue) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", workload, len(got), len(defs))
	}
	for _, m := range defs {
		v, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", workload, m.Name)
		case v.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", workload, m.Name, v.Unit, m.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: metric %s is %v", workload, m.Name, v.Value)
		case nonZero && v.Value <= 0:
			t.Errorf("%s: end-to-end metric %s is %v", workload, m.Name, v.Value)
		}
	}
}

// TestSmoke runs every workload at 1/50 size with one repetition, both
// ways the driver calls it, and requires every named metric.
func TestSmoke(t *testing.T) {
	start := time.Now()
	o := options{seed: 2006, seconds: 0, scale: 50, minReps: 1, out: t.TempDir()}
	for _, s := range specs {
		o.workload = s.name
		o.trace = 0
		checkMetrics(t, s.name, endToEnd, true, captureLine(t, o).Metrics)
	}
	// The layers are the same for every workload: once is enough here.
	o.workload, o.trace = "registry-churn", 1
	checkMetrics(t, o.workload, perLayer, false, captureLine(t, o).Metrics)
	if _, err := os.Stat(filepath.Join(o.out, "spans-registry-churn.jsonl")); err != nil {
		t.Errorf("span file: %v", err)
	}
	t.Logf("smoke took %v", time.Since(start))
}

// TestContract holds BENCHMARK.json to the tables in the code.
func TestContract(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(specs) {
		t.Fatalf("%d workloads, want %d", len(c.Workloads), len(specs))
	}
	for i, s := range specs {
		if c.Workloads[i].Name != s.name || c.Workloads[i].Why != s.why {
			t.Errorf("workload %d is %+v, want %s: %s", i, c.Workloads[i], s.name, s.why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d is %+v, want %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", c.EndToEnd, endToEnd)
	same("per_layer", c.PerLayer, perLayer)
}
