package jdl

import (
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// sliceResolver lays a fixed attribute set out as a flat slice, like
// infosys.Schema does, for compiling against plain maps in tests.
type sliceResolver struct {
	index map[string]int
}

func (r *sliceResolver) Offset(name string) (int, bool) {
	i, ok := r.index[strings.ToLower(name)]
	return i, ok
}

// flatten builds a resolver plus value slice over attrs, in sorted
// name order.
func flatten(attrs map[string]any) (*sliceResolver, []any) {
	names := make([]string, 0, len(attrs))
	for k := range attrs {
		names = append(names, k)
	}
	sort.Strings(names)
	r := &sliceResolver{index: make(map[string]int, len(names))}
	vals := make([]any, len(names))
	for i, n := range names {
		r.index[strings.ToLower(n)] = i
		vals[i] = attrs[n]
	}
	return r, vals
}

// mixedAttrs is the fixed attribute set the compiled path is checked
// against: strings, raw integers the compiled path must normalize,
// floats, booleans, a zero divisor, a value of an unsupported type and
// an unset slot.
var mixedAttrs = map[string]any{
	"Arch": "i686", "OS": "linux", "MemoryMB": 512,
	"FreeCPUs": 3, "TotalCPUs": 4, "QueuedJobs": 2,
	"HasMPI": true, "Load": 1.5, "Site": "uab",
	"Idle": false, "Zero": 0, "Neg": int64(-7), "Huge": 1e300, "Empty": "",
	"Tags": []string{"mpi"}, "Unset": nil,
}

// interpreterCases are expressions whose compiled and interpreted
// results must agree; num evaluates as Rank (number) instead of
// Requirements (bool).
var interpreterCases = []struct {
	expr string
	num  bool
}{
	{expr: `other.Arch == "i686"`},
	{expr: `other.arch == "I686"`}, // case-insensitive names and strings
	{expr: `other.Arch == "x86_64"`},
	{expr: `other.MemoryMB >= 256 && other.OS == "linux"`},
	{expr: `other.MemoryMB < 256 || other.HasMPI`},
	{expr: `!other.HasMPI`},
	{expr: `!(other.FreeCPUs > 0 && other.QueuedJobs == 0)`},
	{expr: `other.FreeCPUs * 2 >= other.TotalCPUs`},
	{expr: `other.Load + 0.5 == 2`},
	{expr: `other.Site + "-cluster" == "uab-cluster"`}, // string concat stays generic
	{expr: `other.Missing == 1`},                       // undefined attribute -> error
	{expr: `other.Arch > 5`},                           // type mismatch -> error
	{expr: `other.HasMPI && other.Load`},               // non-boolean operand -> error
	{expr: `other.FreeCPUs - other.QueuedJobs / 2`, num: true},
	{expr: `(other.TotalCPUs - other.FreeCPUs) * other.Load`, num: true},
	{expr: `other.FreeCPUs / (other.TotalCPUs - 4)`, num: true}, // division by zero -> error
	{expr: `other.MemoryMB / 0.5`, num: true},
	{expr: `other.Load + other.FreeCPUs`, num: true}, // "+" on the generic path
	{expr: `other.HasMPI`, num: true},                // bool promotes to 1/0
	{expr: `other.Missing * 3`, num: true},           // undefined attribute -> error
	{expr: `other.Site * 2`, num: true},              // type mismatch -> error
	{expr: `-other.FreeCPUs`, num: true},             // negation is -1 * x
	{expr: `-other.Load * 2 > -1e-3`},
	{expr: `other.FreeCPUs - -other.QueuedJobs >= 2E1`},
	{expr: `-other.Site`, num: true}, // type mismatch -> error

	// Attribute-vs-literal comparisons: specialized while the slot
	// holds a float64 or a string, the generic comparison otherwise.
	{expr: `other.Load >= 1.5`},
	{expr: `other.Load != 1.5`},
	{expr: `other.Huge > 1000000 && other.Load < 2`},
	{expr: `other.MemoryMB == 512`},   // int slot: the normalize path
	{expr: `other.Neg <= 0`},          // int64 slot
	{expr: `other.Zero != 0`},         // int slot
	{expr: `other.Unset == 1`},        // nil slot -> error
	{expr: `other.Unset != "x"`},      // nil slot -> error
	{expr: `other.Missing != "x"`},    // undefined attribute -> error
	{expr: `other.MemoryMB == "512"`}, // number slot, string literal -> error
	{expr: `other.Load != "1.5"`},     // float slot, string literal -> error
	{expr: `other.OS >= 1`},           // string slot, number literal -> error
	{expr: `other.OS == 1`},           // string slot, number literal -> error
	{expr: `other.HasMPI == 1`},       // boolean slot -> error
	{expr: `other.HasMPI != "true"`},  // boolean slot -> error
	{expr: `other.Tags == "mpi"`},     // unsupported slot type -> error
	{expr: `other.Tags < 1`},          // unsupported slot type -> error
	{expr: `other.OS == "LINUX"`},     // mixed case ==
	{expr: `other.Site != "UAB"`},     // mixed case !=
	{expr: `other.Site != "uab"`},
	{expr: `other.Empty == ""`},
	{expr: `other.Arch < "I686"`}, // string ordering stays generic, case-sensitive
	{expr: `other.Arch >= "i686"`},
	{expr: `256 <= other.MemoryMB`}, // literal on the left: generic
	{expr: `2 > other.Load`},
	{expr: `1.5 == other.Load`},
	{expr: `1 < other.Unset`},
	{expr: `"i686" == other.ARCH`},
	{expr: `"UAB" != other.Site`},
	{expr: `"x" != other.Unset`},
	{expr: `"a" < other.Arch`},
	{expr: `1 == 1`}, // no attribute: generic
	{expr: `other.Load == other.Load`},
	{expr: `other.MemoryMB >= 600`, num: true}, // boolean Rank promotes
	{expr: `other.OS == "linux"`, num: true},
}

// TestCompiledMatchesInterpreter runs a table of expressions through
// both evaluation paths and requires identical results — including
// identical error-ness — so the compiled fast path can never diverge
// from the JDL semantics the interpreter defines.
func TestCompiledMatchesInterpreter(t *testing.T) {
	r, vals := flatten(mixedAttrs)
	for _, c := range interpreterCases {
		field := "Requirements"
		if c.num {
			field = "Rank"
		}
		j, err := ParseJob(`Executable = "x"; ` + field + ` = ` + c.expr + `;`)
		if err != nil {
			t.Fatalf("parse %q: %v", c.expr, err)
		}
		if c.num {
			want, wantErr := j.Rank.EvalNumber(mixedAttrs)
			got, gotErr := Compile(j.Rank, r).EvalNumber(vals)
			if (wantErr != nil) != (gotErr != nil) {
				t.Errorf("%s: interpreter err=%v, compiled err=%v", c.expr, wantErr, gotErr)
			} else if wantErr == nil && got != want {
				t.Errorf("%s: interpreter %v, compiled %v", c.expr, want, got)
			}
		} else {
			want, wantErr := j.Requirements.EvalBool(mixedAttrs)
			got, gotErr := Compile(j.Requirements, r).EvalBool(vals)
			if (wantErr != nil) != (gotErr != nil) {
				t.Errorf("%s: interpreter err=%v, compiled err=%v", c.expr, wantErr, gotErr)
			} else if wantErr == nil && got != want {
				t.Errorf("%s: interpreter %v, compiled %v", c.expr, want, got)
			}
		}
	}
}

// FuzzCompiledMatchesAST extends TestCompiledMatchesInterpreter to every
// expression ParseJob accepts as a Requirements or a Rank: against
// mixedAttrs the compiled program and the interpreter must agree, as a
// boolean and as a number, in value (NaN matching NaN) and in whether
// evaluation errors.
func FuzzCompiledMatchesAST(f *testing.F) {
	for _, c := range interpreterCases {
		f.Add(c.expr)
	}
	examples, err := filepath.Glob("../../examples/jobs/*.jdl")
	if err != nil || len(examples) == 0 {
		f.Fatalf("example jobs: %v (%d files)", err, len(examples))
	}
	for _, path := range examples {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		j, err := ParseJob(string(src))
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		for _, e := range []*Expr{j.Requirements, j.Rank} {
			if e != nil {
				f.Add(e.Node.String())
			}
		}
	}
	r, vals := flatten(mixedAttrs)
	f.Fuzz(func(t *testing.T, expr string) {
		for _, field := range []string{"Requirements", "Rank"} {
			j, err := ParseJob(`Executable = "x"; ` + field + ` = ` + expr + `;`)
			if err != nil {
				continue
			}
			e := j.Requirements
			if field == "Rank" {
				e = j.Rank
			}
			if e == nil {
				continue
			}
			c := Compile(e, r)
			wantB, wantErr := e.EvalBool(mixedAttrs)
			gotB, gotErr := c.EvalBool(vals)
			if (wantErr != nil) != (gotErr != nil) || wantErr == nil && gotB != wantB {
				t.Fatalf("%s = %s as boolean: interpreter %v, %v; compiled %v, %v", field, e.Node, wantB, wantErr, gotB, gotErr)
			}
			wantN, wantErr := e.EvalNumber(mixedAttrs)
			gotN, gotErr := c.EvalNumber(vals)
			same := gotN == wantN || math.IsNaN(gotN) && math.IsNaN(wantN)
			if (wantErr != nil) != (gotErr != nil) || wantErr == nil && !same {
				t.Fatalf("%s = %s as number: interpreter %v, %v; compiled %v, %v", field, e.Node, wantN, wantErr, gotN, gotErr)
			}
		}
	})
}

func TestCompileNilExpression(t *testing.T) {
	if Compile(nil, &sliceResolver{}) != nil {
		t.Fatal("nil expression should compile to nil")
	}
}

func TestCompiledShortCircuit(t *testing.T) {
	// The right operand errors, but the left decides: && false, || true.
	attrs := map[string]any{"A": false, "B": true, "Bad": "str"}
	r, vals := flatten(attrs)
	for _, c := range []struct {
		expr string
		want bool
	}{
		{`other.A && (other.Bad > 1)`, false},
		{`other.B || (other.Bad > 1)`, true},
	} {
		j, err := ParseJob(`Executable = "x"; Requirements = ` + c.expr + `;`)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Compile(j.Requirements, r).EvalBool(vals)
		if err != nil || got != c.want {
			t.Errorf("%s = %v, %v; want %v, nil", c.expr, got, err, c.want)
		}
	}
}

// TestCompiledPredicatesCache verifies the per-job cache: the same
// resolver returns the same programs without recompiling, and a new
// resolver (a schema change) triggers recompilation.
func TestCompiledPredicatesCache(t *testing.T) {
	j, err := ParseJob(`Executable = "x";
Requirements = other.Arch == "i686";
Rank = other.FreeCPUs;`)
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := flatten(map[string]any{"Arch": "i686", "FreeCPUs": 3})
	req1, rank1 := j.CompiledPredicates(r1, nil)
	req2, rank2 := j.CompiledPredicates(r1, nil)
	if req1 != req2 || rank1 != rank2 {
		t.Fatal("same resolver should return cached programs")
	}
	r2, _ := flatten(map[string]any{"Arch": "i686", "FreeCPUs": 3, "New": 1})
	req3, _ := j.CompiledPredicates(r2, nil)
	if req3 == req1 {
		t.Fatal("new resolver should recompile")
	}
}

// TestClassesShareCompiledPrograms checks class sharing: jobs parsed
// separately from one text take the same programs, jobs with another
// Requirements or Rank do not, a resolver change compiles the class
// again, and a tree that cannot key a map compiles for its job alone.
func TestClassesShareCompiledPrograms(t *testing.T) {
	parse := func(req, rank string) *Job {
		t.Helper()
		j, err := ParseJob(`Executable = "x"; Requirements = ` + req + `; Rank = ` + rank + `;`)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	const req, rank = `other.OS == "linux" && other.MemoryMB >= 600`, `other.MemoryMB`
	r1, _ := flatten(map[string]any{"OS": "linux", "MemoryMB": 1024.0})
	var classes Classes
	a, b := parse(req, rank), parse(req, rank)
	reqA, rankA := a.CompiledPredicates(r1, &classes)
	reqB, rankB := b.CompiledPredicates(r1, &classes)
	if reqA == nil || rankA == nil || reqA != reqB || rankA != rankB {
		t.Fatalf("same class: programs %p %p and %p %p, want one shared pair", reqA, rankA, reqB, rankB)
	}
	for _, other := range []*Job{parse(`other.OS == "linux" && other.MemoryMB >= 601`, rank), parse(req, `other.MemoryMB * 2`)} {
		reqO, rankO := other.CompiledPredicates(r1, &classes)
		if reqO == reqA || rankO == rankA {
			t.Fatalf("%s / %s shares the programs of %s / %s", other.Requirements.Node, other.Rank.Node, req, rank)
		}
	}
	if reqAlone, _ := parse(req, rank).CompiledPredicates(r1, nil); reqAlone == reqA {
		t.Fatal("a job compiled without Classes took the class's programs")
	}

	r2, _ := flatten(map[string]any{"OS": "linux", "MemoryMB": 1024.0, "New": 1})
	reqA2, _ := a.CompiledPredicates(r2, &classes)
	reqB2, _ := b.CompiledPredicates(r2, &classes)
	if reqA2 == reqA || reqB2 != reqA2 {
		t.Fatal("a resolver change must compile the class once more and share the result")
	}

	// A list literal would panic as a map key and a NaN literal never
	// equals itself: such jobs compile alone, every time.
	for _, lit := range []Value{List{String("mpi")}, Number(math.NaN())} {
		odd := func() *Job {
			return &Job{Executable: "x", Requirements: &Expr{Node: Binary{Op: "==", L: Ref{Name: "OS"}, R: Lit{V: lit}}}}
		}
		p, _ := odd().CompiledPredicates(r1, &classes)
		q, _ := odd().CompiledPredicates(r1, &classes)
		if p == nil || p == q {
			t.Fatalf("literal %v: programs %p and %p, want one per job", lit, p, q)
		}
	}
}

var benchAttrs = map[string]any{
	"Arch": "i686", "OS": "linux", "MemoryMB": 512.0,
	"FreeCPUs": 3.0, "TotalCPUs": 4.0, "QueuedJobs": 2.0,
}

func benchPredicates(b *testing.B) *Job {
	b.Helper()
	j, err := ParseJob(`Executable = "x";
Requirements = other.Arch == "i686" && other.MemoryMB >= 256;
Rank = other.FreeCPUs - other.QueuedJobs / 2;`)
	if err != nil {
		b.Fatal(err)
	}
	return j
}

func BenchmarkCompiledEval(b *testing.B) {
	j := benchPredicates(b)
	r, vals := flatten(benchAttrs)
	req, rank := j.CompiledPredicates(r, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, err := req.EvalBool(vals); err != nil || !ok {
			b.Fatal(ok, err)
		}
		if _, err := rank.EvalNumber(vals); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkASTEval(b *testing.B) {
	j := benchPredicates(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, err := j.Requirements.EvalBool(benchAttrs); err != nil || !ok {
			b.Fatal(ok, err)
		}
		if _, err := j.Rank.EvalNumber(benchAttrs); err != nil {
			b.Fatal(err)
		}
	}
}
