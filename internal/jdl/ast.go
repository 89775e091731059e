package jdl

import (
	"fmt"
	"strconv"
	"strings"
)

// Value is an attribute value: a string, number, boolean, list, or
// unevaluated expression (Requirements/Rank).
type Value interface {
	// jdl renders the value in canonical JDL syntax.
	jdl() string
}

// String is a JDL string literal.
type String string

// stringEscaper escapes a string literal's body. One value serves every
// call: a Replacer is safe for concurrent use, and building one costs
// more than most replacements.
var stringEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`, "\t", `\t`)

// jdl renders the string with quoting and escapes.
func (s String) jdl() string {
	return `"` + stringEscaper.Replace(string(s)) + `"`
}

// Number is a JDL numeric literal.
type Number float64

// jdl renders the number, without a trailing ".0" for integers.
func (n Number) jdl() string {
	if n == Number(int64(n)) {
		return strconv.FormatInt(int64(n), 10)
	}
	return strconv.FormatFloat(float64(n), 'g', -1, 64)
}

// Bool is a JDL boolean literal.
type Bool bool

// jdl renders "true" or "false".
func (b Bool) jdl() string {
	if b {
		return "true"
	}
	return "false"
}

// List is a brace-delimited list of values.
type List []Value

// jdl renders the list in {a, b, c} form.
func (l List) jdl() string {
	parts := make([]string, len(l))
	for i, v := range l {
		parts[i] = v.jdl()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Expr is an unevaluated expression value (Requirements, Rank).
type Expr struct{ Node ExprNode }

// jdl renders the expression source.
func (e Expr) jdl() string { return e.Node.String() }

// ExprNode is a node in the Requirements/Rank expression tree.
type ExprNode interface {
	fmt.Stringer
	// eval evaluates the node against a machine's attribute set.
	// Attribute values may be string, bool, or any integer/float type.
	eval(attrs map[string]any) (any, error)
}

// EvalError describes an expression evaluation failure.
type EvalError struct{ Msg string }

func (e *EvalError) Error() string { return "jdl: eval: " + e.Msg }

func evalErrf(format string, args ...any) error {
	return &EvalError{Msg: fmt.Sprintf(format, args...)}
}

// Lit is a literal operand.
type Lit struct{ V Value }

func (l Lit) String() string { return l.V.jdl() }

// eval returns the Go value of the literal.
func (l Lit) eval(map[string]any) (any, error) {
	switch v := l.V.(type) {
	case String:
		return string(v), nil
	case Number:
		return float64(v), nil
	case Bool:
		return bool(v), nil
	}
	return nil, evalErrf("literal %s not usable in expression", l.V.jdl())
}

// Ref references a machine attribute, written other.Name (classad
// convention for "the candidate resource's attribute") or bare Name.
type Ref struct {
	Scoped bool // written with the other. prefix
	Name   string
}

func (r Ref) String() string {
	if r.Scoped {
		return "other." + r.Name
	}
	return r.Name
}

// eval looks the attribute up case-insensitively.
func (r Ref) eval(attrs map[string]any) (any, error) {
	if v, ok := attrs[r.Name]; ok {
		return normalize(v)
	}
	for k, v := range attrs {
		if strings.EqualFold(k, r.Name) {
			return normalize(v)
		}
	}
	return nil, evalErrf("undefined attribute %q", r.Name)
}

func normalize(v any) (any, error) {
	switch x := v.(type) {
	case string:
		return x, nil
	case bool:
		return x, nil
	case float64:
		return x, nil
	case float32:
		return float64(x), nil
	case int:
		return float64(x), nil
	case int32:
		return float64(x), nil
	case int64:
		return float64(x), nil
	case uint:
		return float64(x), nil
	case uint64:
		return float64(x), nil
	}
	return nil, evalErrf("attribute value %v has unsupported type %T", v, v)
}

// Not is logical negation.
type Not struct{ X ExprNode }

func (n Not) String() string { return "!" + parenthesize(n.X, 6) }

// eval evaluates the operand and negates it.
func (n Not) eval(attrs map[string]any) (any, error) {
	v, err := n.X.eval(attrs)
	if err != nil {
		return nil, err
	}
	b, ok := v.(bool)
	if !ok {
		return nil, evalErrf("! applied to non-boolean %v", v)
	}
	return !b, nil
}

// Binary is a binary operator node. Op is one of == != < <= > >= &&
// || + - * /.
type Binary struct {
	Op   string
	L, R ExprNode
}

// precedence returns the operator's binding strength (higher binds
// tighter); non-binary nodes are atoms.
func precedence(op string) int {
	switch op {
	case "||":
		return 1
	case "&&":
		return 2
	case "==", "!=", "<", "<=", ">", ">=":
		return 3
	case "+", "-":
		return 4
	case "*", "/":
		return 5
	}
	return 0
}

// String renders the node as text the parser reads back to the same
// tree. The parser groups equal-precedence operators to the left, so a
// right operand at the parent's precedence keeps its parentheses
// (a + (b + c), a - (b - c)); comparisons do not chain, so either
// operand that is itself a comparison keeps them.
func (b Binary) String() string {
	p := precedence(b.Op)
	leftMin := p
	if p == precedence("==") {
		leftMin = p + 1
	}
	return parenthesize(b.L, leftMin) + " " + b.Op + " " + parenthesize(b.R, p+1)
}

// parenthesize renders n, wrapping binary children that bind more
// loosely than the parent requires.
func parenthesize(n ExprNode, minPrec int) string {
	if bn, ok := n.(Binary); ok && precedence(bn.Op) < minPrec {
		return "(" + bn.String() + ")"
	}
	return n.String()
}

// eval evaluates the operator with short-circuiting for && and ||.
func (b Binary) eval(attrs map[string]any) (any, error) {
	if b.Op == "&&" || b.Op == "||" {
		lv, err := b.L.eval(attrs)
		if err != nil {
			return nil, err
		}
		lb, ok := lv.(bool)
		if !ok {
			return nil, evalErrf("%s applied to non-boolean %v", b.Op, lv)
		}
		if b.Op == "&&" && !lb {
			return false, nil
		}
		if b.Op == "||" && lb {
			return true, nil
		}
		rv, err := b.R.eval(attrs)
		if err != nil {
			return nil, err
		}
		rb, ok := rv.(bool)
		if !ok {
			return nil, evalErrf("%s applied to non-boolean %v", b.Op, rv)
		}
		return rb, nil
	}

	lv, err := b.L.eval(attrs)
	if err != nil {
		return nil, err
	}
	rv, err := b.R.eval(attrs)
	if err != nil {
		return nil, err
	}
	switch b.Op {
	case "+", "-", "*", "/":
		return arith(b.Op, lv, rv)
	}
	cb, err := compareBool(b.Op, lv, rv)
	if err != nil {
		return nil, err
	}
	return cb, nil
}

// arith evaluates numeric operators; "+" also concatenates strings
// (classad convention).
func arith(op string, lv, rv any) (any, error) {
	if ls, ok := lv.(string); ok && op == "+" {
		rs, ok := rv.(string)
		if !ok {
			return nil, evalErrf("cannot concatenate string with %T", rv)
		}
		return ls + rs, nil
	}
	l, ok := lv.(float64)
	if !ok {
		return nil, evalErrf("operator %s needs numbers, got %T", op, lv)
	}
	r, ok := rv.(float64)
	if !ok {
		return nil, evalErrf("operator %s needs numbers, got %T", op, rv)
	}
	switch op {
	case "+":
		return l + r, nil
	case "-":
		return l - r, nil
	case "*":
		return l * r, nil
	case "/":
		if r == 0 {
			return nil, evalErrf("division by zero")
		}
		return l / r, nil
	}
	return nil, evalErrf("unknown operator %s", op)
}

// compareBool evaluates a comparison operator. Returning an unboxed
// bool lets the compiled path (compile.go) chain comparisons into
// logical connectives without interface boxing.
func compareBool(op string, lv, rv any) (bool, error) {
	switch l := lv.(type) {
	case float64:
		r, ok := rv.(float64)
		if !ok {
			return false, evalErrf("cannot compare number with %T", rv)
		}
		switch op {
		case "==":
			return l == r, nil
		case "!=":
			return l != r, nil
		case "<":
			return l < r, nil
		case "<=":
			return l <= r, nil
		case ">":
			return l > r, nil
		case ">=":
			return l >= r, nil
		}
	case string:
		r, ok := rv.(string)
		if !ok {
			return false, evalErrf("cannot compare string with %T", rv)
		}
		switch op {
		case "==":
			return strings.EqualFold(l, r), nil
		case "!=":
			return !strings.EqualFold(l, r), nil
		case "<":
			return l < r, nil
		case "<=":
			return l <= r, nil
		case ">":
			return l > r, nil
		case ">=":
			return l >= r, nil
		}
	case bool:
		r, ok := rv.(bool)
		if !ok {
			return false, evalErrf("cannot compare boolean with %T", rv)
		}
		switch op {
		case "==":
			return l == r, nil
		case "!=":
			return l != r, nil
		}
		return false, evalErrf("operator %s not defined on booleans", op)
	}
	return false, evalErrf("unsupported operand type %T", lv)
}

// EvalBool evaluates a Requirements-style expression to a boolean.
func (e Expr) EvalBool(attrs map[string]any) (bool, error) {
	v, err := e.Node.eval(attrs)
	if err != nil {
		return false, err
	}
	b, ok := v.(bool)
	if !ok {
		return false, evalErrf("expression yields %T, want boolean", v)
	}
	return b, nil
}

// EvalNumber evaluates a Rank-style expression to a number. Boolean
// results are promoted to 1/0 (classad convention).
func (e Expr) EvalNumber(attrs map[string]any) (float64, error) {
	v, err := e.Node.eval(attrs)
	if err != nil {
		return 0, err
	}
	switch x := v.(type) {
	case float64:
		return x, nil
	case bool:
		if x {
			return 1, nil
		}
		return 0, nil
	}
	return 0, evalErrf("expression yields %T, want number", v)
}
