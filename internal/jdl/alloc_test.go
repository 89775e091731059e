package jdl

import "testing"

// TestCompiledEvalAllocs holds evaluation to zero allocations: the
// registry-churn benchmark's predicates (a typed string and number
// comparison, a bare reference and an arithmetic Rank) over a
// registry-style vector of float64 and string values, a job's cached
// programs, and a job with no predicates at all, which compiles to
// nothing.
func TestCompiledEvalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	r, vals := flatten(map[string]any{"OS": "linux", "MemoryMB": 1024.0, "FreeCPUs": 4.0})
	var classes Classes
	for _, rank := range []string{`other.MemoryMB`, `other.FreeCPUs * 1000 - other.MemoryMB`} {
		j, err := ParseJob(`Executable = "x"; Requirements = other.OS == "linux" && other.MemoryMB >= 600; Rank = ` + rank + `;`)
		if err != nil {
			t.Fatal(err)
		}
		req, rk := j.CompiledPredicates(r, &classes)
		eval := func() {
			if ok, err := req.EvalBool(vals); err != nil || !ok {
				t.Fatalf("Requirements = %v, %v", ok, err)
			}
			if _, err := rk.EvalNumber(vals); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(100, eval); n != 0 {
			t.Errorf("Rank = %s: EvalBool and EvalNumber allocate %v times, want 0", rank, n)
		}
		if n := testing.AllocsPerRun(100, func() { j.CompiledPredicates(r, &classes) }); n != 0 {
			t.Errorf("Rank = %s: a cached CompiledPredicates allocates %v times, want 0", rank, n)
		}
	}
	plain := &Job{Executable: "x"}
	if n := testing.AllocsPerRun(100, func() {
		if req, rank := plain.CompiledPredicates(r, &classes); req != nil || rank != nil {
			t.Fatal("a job without predicates compiled programs")
		}
	}); n != 0 {
		t.Errorf("CompiledPredicates without predicates allocates %v times, want 0", n)
	}
}
