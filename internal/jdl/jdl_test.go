package jdl

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// figure2 is the job description from Figure 2 of the paper.
const figure2 = `
Executable = "interactive_mpich-g2_app";
JobType    = {"interactive", "mpich-g2"};
NodeNumber = 2;
Arguments  = "-n";
`

func TestParseFigure2(t *testing.T) {
	d, err := Parse(figure2)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.names) != 4 {
		t.Fatalf("parsed %d attributes, want 4", len(d.names))
	}
	j, err := ExtractJob(d)
	if err != nil {
		t.Fatal(err)
	}
	if j.Executable != "interactive_mpich-g2_app" {
		t.Fatalf("Executable = %q", j.Executable)
	}
	if !j.Interactive || j.Flavor != MPICHG2 {
		t.Fatalf("JobType wrong: interactive=%v flavor=%v", j.Interactive, j.Flavor)
	}
	if j.NodeNumber != 2 {
		t.Fatalf("NodeNumber = %d", j.NodeNumber)
	}
	if len(j.Arguments) != 1 || j.Arguments[0] != "-n" {
		t.Fatalf("Arguments = %v", j.Arguments)
	}
	// Defaults per the paper.
	if j.Streaming != FastStreaming || j.Access != ExclusiveAccess || j.PerformanceLoss != 0 {
		t.Fatalf("defaults wrong: %+v", j)
	}
}

func TestCaseInsensitiveAttributeNames(t *testing.T) {
	j, err := ParseJob(`executable = "a"; JOBTYPE = "batch";`)
	if err != nil {
		t.Fatal(err)
	}
	if j.Executable != "a" || j.Interactive {
		t.Fatalf("job = %+v", j)
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := `
# hash comment
// line comment
Executable = "x"; /* block
comment */ NodeNumber = 1;
`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestStringEscapes(t *testing.T) {
	d, err := Parse(`Executable = "a\"b\\c\nd\te";`)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := d.get("Executable")
	if string(v.(String)) != "a\"b\\c\nd\te" {
		t.Fatalf("got %q", v.(String))
	}
}

func TestNumbersAndBooleans(t *testing.T) {
	d, err := Parse(`A = -3; B = 2.5; C = true; D = false;`)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := d.get("A"); v.(Number) != -3 {
		t.Fatalf("A = %v", v)
	}
	if v, _ := d.get("B"); v.(Number) != 2.5 {
		t.Fatalf("B = %v", v)
	}
	if v, _ := d.get("C"); v.(Bool) != true {
		t.Fatalf("C = %v", v)
	}
	if v, _ := d.get("D"); v.(Bool) != false {
		t.Fatalf("D = %v", v)
	}
}

func TestNestedLists(t *testing.T) {
	d, err := Parse(`L = {"a", {1, 2}, true};`)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := d.get("L")
	l := v.(List)
	if len(l) != 3 {
		t.Fatalf("list = %v", l)
	}
	inner := l[1].(List)
	if len(inner) != 2 || inner[0].(Number) != 1 {
		t.Fatalf("inner = %v", inner)
	}
}

func TestEmptyList(t *testing.T) {
	d, err := Parse(`L = {};`)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := d.get("L")
	if len(v.(List)) != 0 {
		t.Fatalf("list = %v", v)
	}
}

func TestSyntaxErrors(t *testing.T) {
	cases := []string{
		`Executable = ;`,
		`Executable "x";`,
		`= "x";`,
		`Executable = "x"`,    // missing semicolon
		`Executable = "x`,     // unterminated string
		`Executable = "x\q";`, /* bad escape */
		`A = {1, };`,
		`A = (1;`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		} else {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Errorf("Parse(%q) error %v is not a SyntaxError", src, err)
			}
		}
	}
}

func TestSyntaxErrorLineNumbers(t *testing.T) {
	_, err := Parse("Executable = \"x\";\nOops = ;\n")
	var se *SyntaxError
	if !errors.As(err, &se) || se.Line != 2 {
		t.Fatalf("err = %v, want SyntaxError on line 2", err)
	}
}

func TestRequirementsEvaluation(t *testing.T) {
	j, err := ParseJob(`
Executable   = "x";
Requirements = other.Arch == "i686" && other.MemoryMB >= 512 && !(other.Busy);
`)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := j.Requirements.EvalBool(map[string]any{
		"Arch": "i686", "MemoryMB": 1024, "Busy": false,
	})
	if err != nil || !ok {
		t.Fatalf("eval = %v, %v", ok, err)
	}
	ok, err = j.Requirements.EvalBool(map[string]any{
		"Arch": "x86_64", "MemoryMB": 1024, "Busy": false,
	})
	if err != nil || ok {
		t.Fatalf("mismatched arch accepted: %v, %v", ok, err)
	}
}

func TestRequirementsCaseInsensitiveStrings(t *testing.T) {
	j, err := ParseJob(`Executable = "x"; Requirements = other.OS == "LINUX";`)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := j.Requirements.EvalBool(map[string]any{"OS": "linux"})
	if err != nil || !ok {
		t.Fatalf("case-insensitive string compare failed: %v %v", ok, err)
	}
}

func TestRequirementsUndefinedAttribute(t *testing.T) {
	j, err := ParseJob(`Executable = "x"; Requirements = other.GPU == true;`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Requirements.EvalBool(map[string]any{"Arch": "i686"}); err == nil {
		t.Fatal("undefined attribute evaluated without error")
	}
}

func TestRankEvaluation(t *testing.T) {
	j, err := ParseJob(`Executable = "x"; Rank = other.FreeCPUs;`)
	if err != nil {
		t.Fatal(err)
	}
	n, err := j.Rank.EvalNumber(map[string]any{"FreeCPUs": 7})
	if err != nil || n != 7 {
		t.Fatalf("rank = %v, %v", n, err)
	}
	// Boolean rank promotes to 1/0.
	j2, _ := ParseJob(`Executable = "x"; Rank = other.Idle == true;`)
	n, err = j2.Rank.EvalNumber(map[string]any{"Idle": true})
	if err != nil || n != 1 {
		t.Fatalf("bool rank = %v, %v", n, err)
	}
}

func TestShortCircuitEvaluation(t *testing.T) {
	j, err := ParseJob(`Executable = "x"; Requirements = false && other.Missing == 1;`)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := j.Requirements.EvalBool(map[string]any{})
	if err != nil || ok {
		t.Fatalf("short-circuit && failed: %v %v", ok, err)
	}
	j2, _ := ParseJob(`Executable = "x"; Requirements = true || other.Missing == 1;`)
	ok, err = j2.Requirements.EvalBool(map[string]any{})
	if err != nil || !ok {
		t.Fatalf("short-circuit || failed: %v %v", ok, err)
	}
}

func TestEvalTypeErrors(t *testing.T) {
	cases := []struct {
		req   string
		attrs map[string]any
	}{
		{`other.A == "s"`, map[string]any{"A": 5}},
		{`other.A && true`, map[string]any{"A": 5}},
		{`other.A > true`, map[string]any{"A": true}},
		{`!other.A`, map[string]any{"A": "str"}},
	}
	for _, c := range cases {
		j, err := ParseJob(`Executable = "x"; Requirements = ` + c.req + `;`)
		if err != nil {
			t.Fatalf("parse %q: %v", c.req, err)
		}
		if _, err := j.Requirements.EvalBool(c.attrs); err == nil {
			t.Errorf("eval %q with %v succeeded, want type error", c.req, c.attrs)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []string{
		`JobType = "batch";`, // missing Executable
		`Executable = "x"; NodeNumber = 0;`,
		`Executable = "x"; NodeNumber = 2.5;`,
		`Executable = "x"; JobType = "sequential"; NodeNumber = 4;`,
		`Executable = "x"; JobType = "wibble";`,
		`Executable = "x"; StreamingMode = "sometimes";`,
		`Executable = "x"; MachineAccess = "maybe";`,
		`Executable = "x"; JobType = "interactive"; PerformanceLoss = 7;`,
		`Executable = "x"; JobType = "interactive"; PerformanceLoss = -5;`,
		`Executable = "x"; JobType = "batch"; MachineAccess = "shared";`,
		`Executable = "x"; JobType = "batch"; PerformanceLoss = 10;`,
		`Executable = "x"; ShadowPort = 99999;`,
		`Executable = 5;`,
	}
	for _, src := range cases {
		if _, err := ParseJob(src); !errors.Is(err, ErrValidation) {
			t.Errorf("ParseJob(%q) err = %v, want ErrValidation", src, err)
		}
	}
}

func TestPerformanceLossMultiplesOfFive(t *testing.T) {
	for _, pl := range []int{0, 5, 10, 25, 100} {
		src := `Executable = "x"; JobType = "interactive"; MachineAccess = "shared"; PerformanceLoss = ` +
			String("").jdl()[:0] + itoa(pl) + `;`
		j, err := ParseJob(src)
		if err != nil {
			t.Fatalf("PL=%d rejected: %v", pl, err)
		}
		if j.PerformanceLoss != pl {
			t.Fatalf("PL = %d, want %d", j.PerformanceLoss, pl)
		}
	}
}

func itoa(n int) string {
	return Number(n).jdl()
}

func TestArgumentsStringSplit(t *testing.T) {
	j, err := ParseJob(`Executable = "x"; Arguments = "-n 5 --verbose";`)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Arguments) != 3 || j.Arguments[2] != "--verbose" {
		t.Fatalf("Arguments = %v", j.Arguments)
	}
}

func TestRoundTripCanonicalForm(t *testing.T) {
	srcs := []string{
		figure2,
		`Executable = "app"; JobType = {"interactive", "sequential"}; StreamingMode = "reliable"; MachineAccess = "shared"; PerformanceLoss = 15;`,
		`Executable = "b"; JobType = "batch"; Requirements = other.Arch == "i686" && other.MemoryMB >= 256; Rank = other.FreeCPUs;`,
		`Executable = "c"; InputFiles = {"data.txt", "cfg.ini"}; ShadowPort = 9999;`,
	}
	for _, src := range srcs {
		j1, err := ParseJob(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		d, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		printed := d.String()
		j2, err := ParseJob(printed)
		if err != nil {
			t.Fatalf("reparse of %q failed: %v\nprinted:\n%s", src, err, printed)
		}
		if !reflect.DeepEqual(j1, j2) {
			t.Fatalf("round trip changed job:\nfirst:  %+v\nsecond: %+v", j1, j2)
		}
	}
}

func TestDescriptorStringAligned(t *testing.T) {
	d, _ := Parse(figure2)
	out := d.String()
	if !strings.Contains(out, `Executable = "interactive_mpich-g2_app";`) {
		t.Fatalf("canonical form:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasSuffix(line, ";") {
			t.Fatalf("line %q missing semicolon", line)
		}
	}
}

func TestExprJDLPreservesPrecedence(t *testing.T) {
	j, err := ParseJob(`Executable = "x"; Requirements = (other.A == 1 || other.B == 2) && other.C == 3;`)
	if err != nil {
		t.Fatal(err)
	}
	printed := j.Requirements.jdl()
	j2, err := ParseJob(`Executable = "x"; Requirements = ` + printed + `;`)
	if err != nil {
		t.Fatalf("reparse %q: %v", printed, err)
	}
	attrs := map[string]any{"A": 9, "B": 2, "C": 3}
	ok1, _ := j.Requirements.EvalBool(attrs)
	ok2, _ := j2.Requirements.EvalBool(attrs)
	if ok1 != ok2 || !ok1 {
		t.Fatalf("precedence lost: %v vs %v (printed %q)", ok1, ok2, printed)
	}
}

func TestSetOverwritesKeepingOrder(t *testing.T) {
	d := newDescriptor()
	d.set("A", Number(1))
	d.set("B", Number(2))
	d.set("a", Number(3))
	if len(d.names) != 2 {
		t.Fatalf("Len = %d", len(d.names))
	}
	if v, _ := d.get("A"); v.(Number) != 3 {
		t.Fatalf("A = %v", v)
	}
	names := d.names
	if names[0] != "A" || names[1] != "B" {
		t.Fatalf("names = %v", names)
	}
}

func TestFlavorAndModeStrings(t *testing.T) {
	if Sequential.String() != "sequential" || MPICHP4.String() != "mpich-p4" || MPICHG2.String() != "mpich-g2" {
		t.Fatal("flavor strings wrong")
	}
	if FastStreaming.String() != "fast" || ReliableStreaming.String() != "reliable" {
		t.Fatal("streaming strings wrong")
	}
	if ExclusiveAccess.String() != "exclusive" || SharedAccess.String() != "shared" {
		t.Fatal("access strings wrong")
	}
}

// renderCases are attribute values whose rendering must parse back to
// the same tree. Equal-precedence right operands and comparison
// operands are the shapes that need parentheses; numbers the renderer
// writes with an exponent need the lexer to read one; a minus before a
// non-literal operand is the gLite way to rank by a smaller value; a
// constant that overflows stays an expression.
var renderCases = []string{
	`other.HasMPI == (other.Load == 1.5)`,
	`(other.A == 1) != (other.B == 2)`,
	`(other.A < other.B) == false`,
	`other.A + (other.B + other.C)`,
	`other.A - (other.B - other.C)`,
	`other.A * (other.B * other.C)`,
	`other.A / (other.B / other.C)`,
	`other.A + other.B + other.C`,
	`other.A - other.B + (other.C - other.D)`,
	`(other.A + other.B) * other.C`,
	`other.A && (other.B && other.C)`,
	`other.A || (other.B || other.C)`,
	`other.A || other.B && other.C`,
	`(other.A || other.B) && other.C`,
	`!(other.A == 1) && !other.B`,
	`other.Arch == "i686" && other.MemoryMB >= 256 && (other.OS == "linux" || other.OS == "Linux")`,
	`-other.FreeCPUs`,
	`1e3`,
	`0.0000001`,
	`1000000000000000000000`,
	`other.A * -other.B`,
	`other.A - -other.B`,
	`-(other.A + 1) * 2.5E-3`,
	`1e308 * 10`,
}

// TestExprRenderParsesToSameTree renders parsed values and parses the
// text again: the tree must come back equal, and a second render must
// be byte-equal to the first.
func TestExprRenderParsesToSameTree(t *testing.T) {
	parseE := func(src string) Value {
		t.Helper()
		d, err := Parse("E = " + src + ";")
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		v, _ := d.get("E")
		return v
	}
	for _, src := range renderCases {
		v1 := parseE(src)
		text := v1.jdl()
		v2 := parseE(text)
		if !reflect.DeepEqual(v1, v2) {
			t.Errorf("%s renders as %s, which parses to another tree", src, text)
			continue
		}
		if again := v2.jdl(); again != text {
			t.Errorf("%s renders as %s, then as %s", src, text, again)
		}
	}
}

// FuzzParseJob holds the renderer to the parser on whole documents:
// every document Parse accepts renders (Descriptor.String) to text that
// parses to an equal tree and renders to the same bytes again, and a
// job ExtractJob accepts comes back equal from that text. No input may
// panic.
func FuzzParseJob(f *testing.F) {
	examples, err := filepath.Glob("../../examples/jobs/*.jdl")
	if err != nil || len(examples) == 0 {
		f.Fatalf("example jobs: %v (%d files)", err, len(examples))
	}
	for _, path := range examples {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, v := range renderCases {
		f.Add(`Executable = "x"; Rank = ` + v + `;`)
	}
	f.Fuzz(func(t *testing.T, src string) {
		d, err := Parse(src)
		if err != nil {
			return
		}
		text := d.String()
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("renders as text that does not parse: %v\n%s", err, text)
		}
		if !reflect.DeepEqual(d, back) {
			t.Fatalf("renders as text that parses to another tree:\n%s", text)
		}
		if again := back.String(); again != text {
			t.Fatalf("renders as\n%s\nthen as\n%s", text, again)
		}
		j, err := ExtractJob(d)
		if err != nil {
			return
		}
		j2, err := ExtractJob(back)
		if err != nil || !reflect.DeepEqual(j, j2) {
			t.Fatalf("job %+v comes back as %+v (%v) from\n%s", j, j2, err, text)
		}
	})
}
