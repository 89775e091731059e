package jdl

import (
	"math"
	"testing"
)

func evalRank(t *testing.T, expr string, attrs map[string]any) float64 {
	t.Helper()
	j, err := ParseJob(`Executable = "x"; Rank = ` + expr + `;`)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	v, err := j.Rank.EvalNumber(attrs)
	if err != nil {
		t.Fatalf("eval %q: %v", expr, err)
	}
	return v
}

func TestArithmeticPrecedence(t *testing.T) {
	attrs := map[string]any{"A": 2, "B": 3, "C": 4}
	cases := []struct {
		expr string
		want float64
	}{
		{`other.A + other.B * other.C`, 14},
		{`(other.A + other.B) * other.C`, 20},
		{`other.C - other.B - other.A`, -1}, // left associative
		{`other.C / other.A / other.A`, 1},
		{`other.C - (other.B - other.A)`, 3},
		{`other.A * other.B + other.C / other.A`, 8},
		{`-5 + other.A`, -3},
		{`other.A - 3`, -1}, // '-' as operator, not sign
		{`-other.A * other.B`, -6},
		{`other.C - -other.A`, 6},
		{`-(other.A + other.B)`, -5},
		{`2.5e1 + other.A`, 27},
		{`1E-1 * other.C`, 0.4},
	}
	for _, c := range cases {
		if got := evalRank(t, c.expr, attrs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestArithmeticInComparisons(t *testing.T) {
	j, err := ParseJob(`Executable = "x"; Requirements = other.FreeCPUs * 2 >= other.TotalCPUs;`)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := j.Requirements.EvalBool(map[string]any{"FreeCPUs": 3, "TotalCPUs": 4})
	if err != nil || !ok {
		t.Fatalf("eval: %v %v", ok, err)
	}
	ok, _ = j.Requirements.EvalBool(map[string]any{"FreeCPUs": 1, "TotalCPUs": 4})
	if ok {
		t.Fatal("1*2 >= 4 accepted")
	}
}

func TestStringConcatenation(t *testing.T) {
	d, err := Parse(`Executable = "app-" + "v2";`)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := d.get("Executable")
	if string(v.(String)) != "app-v2" {
		t.Fatalf("got %v", v)
	}
}

func TestConstantFolding(t *testing.T) {
	d, err := Parse(`Timeout = 60 * 5; Half = 7 / 2; Flag = !(false);`)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := d.get("Timeout"); v.(Number) != 300 {
		t.Fatalf("Timeout = %v", v)
	}
	if v, _ := d.get("Half"); v.(Number) != 3.5 {
		t.Fatalf("Half = %v", v)
	}
	if v, _ := d.get("Flag"); v.(Bool) != true {
		t.Fatalf("Flag = %v", v)
	}
}

func TestDivisionByZero(t *testing.T) {
	j, err := ParseJob(`Executable = "x"; Rank = other.A / other.B;`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Rank.EvalNumber(map[string]any{"A": 1, "B": 0}); err == nil {
		t.Fatal("division by zero evaluated")
	}
	// Constant division by zero survives parsing (not folded) and
	// fails at evaluation.
	j2, err := ParseJob(`Executable = "x"; Rank = 1 / 0;`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Rank.EvalNumber(nil); err == nil {
		t.Fatal("constant division by zero evaluated")
	}
}

func TestArithmeticTypeErrors(t *testing.T) {
	cases := []struct {
		expr  string
		attrs map[string]any
	}{
		{`other.A + 1`, map[string]any{"A": "str"}},
		{`"s" + 1`, nil},
		{`other.A * true`, map[string]any{"A": 2.0}},
	}
	for _, c := range cases {
		j, err := ParseJob(`Executable = "x"; Rank = ` + c.expr + `;`)
		if err != nil {
			t.Fatalf("parse %q: %v", c.expr, err)
		}
		attrs := c.attrs
		if attrs == nil {
			attrs = map[string]any{}
		}
		if _, err := j.Rank.EvalNumber(attrs); err == nil {
			t.Errorf("%s evaluated without type error", c.expr)
		}
	}
}

func TestArithmeticRoundTrip(t *testing.T) {
	exprs := []string{
		`other.A + other.B * other.C`,
		`(other.A + other.B) * other.C`,
		`other.C - (other.B - other.A)`,
		`other.C / (other.B / other.A)`,
		`other.FreeCPUs * 2 >= other.TotalCPUs && other.A + 1 < 10`,
	}
	attrs := map[string]any{"A": 2, "B": 3, "C": 24, "FreeCPUs": 3, "TotalCPUs": 4}
	for _, e := range exprs {
		j1, err := ParseJob(`Executable = "x"; Rank = ` + e + `;`)
		if err != nil {
			t.Fatalf("parse %q: %v", e, err)
		}
		printed := j1.Rank.jdl()
		j2, err := ParseJob(`Executable = "x"; Rank = ` + printed + `;`)
		if err != nil {
			t.Fatalf("reparse %q (printed from %q): %v", printed, e, err)
		}
		v1, err1 := j1.Rank.EvalNumber(attrs)
		v2, err2 := j2.Rank.EvalNumber(attrs)
		if err1 != nil || err2 != nil || v1 != v2 {
			t.Errorf("%q -> %q changed value: %v/%v (%v/%v)", e, printed, v1, v2, err1, err2)
		}
	}
}

func TestNegativeLiteralsStillWork(t *testing.T) {
	d, err := Parse(`A = -3; L = {-1, -2.5};`)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := d.get("A"); v.(Number) != -3 {
		t.Fatalf("A = %v", v)
	}
	l, _ := d.get("L")
	if l.(List)[1].(Number) != -2.5 {
		t.Fatalf("L = %v", l)
	}
}
