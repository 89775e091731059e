package jdl

// This file lowers Requirements/Rank expression trees into closure
// chains over a flat attribute slice. The interpreted path
// (ExprNode.Eval) walks the AST and hashes map keys for every
// attribute reference on every candidate; the compiled path resolves
// each reference to a slice offset once, constant-folds literals, and
// keeps boolean and numeric subtrees unboxed, so per-candidate
// evaluation is a few closure calls with zero allocations. The broker
// compiles a job's predicates once per information-system schema and
// reuses them across every site of every selection pass.

// Resolver maps attribute names (case-insensitively) to offsets in the
// flat value slices a Compiled program evaluates against.
// infosys.Schema implements it.
type Resolver interface {
	Offset(name string) (int, bool)
}

// Compiled is a compiled Requirements/Rank program. Evaluate it with
// EvalBool or EvalNumber against a value slice laid out by the same
// Resolver it was compiled for.
type Compiled struct {
	any  func(vals []any) (any, error)
	bool func(vals []any) (bool, error) // non-nil for boolean-typed trees
	num  func(vals []any) (float64, error)
}

// Compile lowers e against r. A nil expression compiles to nil (the
// caller's "no constraint" case).
func Compile(e *Expr, r Resolver) *Compiled {
	if e == nil {
		return nil
	}
	c := &Compiled{any: compileAny(e.Node, r)}
	c.bool, _ = compileBool(e.Node, r)
	// A bare reference stays on the generic path: at top level the
	// interpreter promotes booleans to 1/0 (classad convention), which
	// the unboxed numeric specialization — correct inside arithmetic,
	// where booleans are errors — would reject.
	if _, isRef := e.Node.(Ref); !isRef {
		c.num, _ = compileNum(e.Node, r)
	}
	return c
}

// EvalBool evaluates a Requirements-style program to a boolean.
func (c *Compiled) EvalBool(vals []any) (bool, error) {
	if c.bool != nil {
		return c.bool(vals)
	}
	v, err := c.any(vals)
	if err != nil {
		return false, err
	}
	b, ok := v.(bool)
	if !ok {
		return false, evalErrf("expression yields %T, want boolean", v)
	}
	return b, nil
}

// EvalNumber evaluates a Rank-style program to a number; booleans
// promote to 1/0 (classad convention).
func (c *Compiled) EvalNumber(vals []any) (float64, error) {
	if c.num != nil {
		return c.num(vals)
	}
	v, err := c.any(vals)
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

// compileAny lowers any node to a generic evaluator. It never returns
// nil: unresolvable references and malformed literals compile to
// closures that reproduce the interpreted path's eval-time error.
func compileAny(n ExprNode, r Resolver) func(vals []any) (any, error) {
	switch x := n.(type) {
	case Lit:
		v, err := x.Eval(nil)
		if err != nil {
			return func([]any) (any, error) { return nil, err }
		}
		return func([]any) (any, error) { return v, nil }

	case Ref:
		off, ok := r.Offset(x.Name)
		if !ok {
			err := evalErrf("undefined attribute %q", x.Name)
			return func([]any) (any, error) { return nil, err }
		}
		name := x.Name
		return func(vals []any) (any, error) {
			v := vals[off]
			if v == nil {
				return nil, evalErrf("undefined attribute %q", name)
			}
			switch v.(type) {
			case string, bool, float64:
				return v, nil
			}
			return normalize(v)
		}

	case Not:
		inner, ok := compileBool(x.X, r)
		if !ok {
			inner = boolFallback(x.X, r)
		}
		return func(vals []any) (any, error) {
			b, err := inner(vals)
			if err != nil {
				return nil, err
			}
			return !b, nil
		}

	case Binary:
		if x.Op == "&&" || x.Op == "||" {
			b, _ := compileBool(x, r)
			return func(vals []any) (any, error) { return b(vals) }
		}
		if f, ok := compileNum(x, r); ok {
			return func(vals []any) (any, error) {
				v, err := f(vals)
				if err != nil {
					return nil, err
				}
				return v, nil
			}
		}
		l, rr := compileAny(x.L, r), compileAny(x.R, r)
		if x.Op == "+" || x.Op == "-" || x.Op == "*" || x.Op == "/" {
			op := x.Op
			return func(vals []any) (any, error) {
				lv, err := l(vals)
				if err != nil {
					return nil, err
				}
				rv, err := rr(vals)
				if err != nil {
					return nil, err
				}
				return arith(op, lv, rv)
			}
		}
		op := x.Op
		return func(vals []any) (any, error) {
			lv, err := l(vals)
			if err != nil {
				return nil, err
			}
			rv, err := rr(vals)
			if err != nil {
				return nil, err
			}
			return compareBool(op, lv, rv)
		}
	}
	err := evalErrf("cannot compile node %T", n)
	return func([]any) (any, error) { return nil, err }
}

// compileBool lowers boolean-typed subtrees (literals, negation,
// logical connectives, comparisons, boolean references) to unboxed
// evaluators. ok is false when the node cannot yield a boolean without
// a dynamic check.
func compileBool(n ExprNode, r Resolver) (func(vals []any) (bool, error), bool) {
	switch x := n.(type) {
	case Lit:
		if b, isBool := x.V.(Bool); isBool {
			v := bool(b)
			return func([]any) (bool, error) { return v, nil }, true
		}
		return nil, false

	case Ref:
		off, ok := r.Offset(x.Name)
		if !ok {
			err := evalErrf("undefined attribute %q", x.Name)
			return func([]any) (bool, error) { return false, err }, true
		}
		name := x.Name
		return func(vals []any) (bool, error) {
			b, isBool := vals[off].(bool)
			if !isBool {
				if vals[off] == nil {
					return false, evalErrf("undefined attribute %q", name)
				}
				return false, evalErrf("attribute %q is not boolean", name)
			}
			return b, nil
		}, true

	case Not:
		inner, ok := compileBool(x.X, r)
		if !ok {
			inner = boolFallback(x.X, r)
		}
		return func(vals []any) (bool, error) {
			b, err := inner(vals)
			if err != nil {
				return false, err
			}
			return !b, nil
		}, true

	case Binary:
		switch x.Op {
		case "&&", "||":
			l, ok := compileBool(x.L, r)
			if !ok {
				l = boolFallback(x.L, r)
			}
			rr, ok := compileBool(x.R, r)
			if !ok {
				rr = boolFallback(x.R, r)
			}
			if x.Op == "&&" {
				return func(vals []any) (bool, error) {
					lb, err := l(vals)
					if err != nil || !lb {
						return false, err
					}
					return rr(vals)
				}, true
			}
			return func(vals []any) (bool, error) {
				lb, err := l(vals)
				if err != nil || lb {
					return lb, err
				}
				return rr(vals)
			}, true

		case "==", "!=", "<", "<=", ">", ">=":
			l, rr := compileAny(x.L, r), compileAny(x.R, r)
			op := x.Op
			return func(vals []any) (bool, error) {
				lv, err := l(vals)
				if err != nil {
					return false, err
				}
				rv, err := rr(vals)
				if err != nil {
					return false, err
				}
				return compareBool(op, lv, rv)
			}, true
		}
	}
	return nil, false
}

// boolFallback wraps a generically-compiled node with the boolean
// check the interpreted path applies, for operands whose type is only
// known at eval time.
func boolFallback(n ExprNode, r Resolver) func(vals []any) (bool, error) {
	f := compileAny(n, r)
	return func(vals []any) (bool, error) {
		v, err := f(vals)
		if err != nil {
			return false, err
		}
		b, ok := v.(bool)
		if !ok {
			return false, evalErrf("! applied to non-boolean %v", v)
		}
		return b, nil
	}
}

// compileNum lowers numeric subtrees (number literals, numeric
// references, and - * / arithmetic) to unboxed evaluators. "+" is
// excluded: it concatenates at eval time when both operands are
// strings, so it must stay on the generic path.
func compileNum(n ExprNode, r Resolver) (func(vals []any) (float64, error), bool) {
	switch x := n.(type) {
	case Lit:
		if num, isNum := x.V.(Number); isNum {
			v := float64(num)
			return func([]any) (float64, error) { return v, nil }, true
		}
		return nil, false

	case Ref:
		off, ok := r.Offset(x.Name)
		if !ok {
			err := evalErrf("undefined attribute %q", x.Name)
			return func([]any) (float64, error) { return 0, err }, true
		}
		name := x.Name
		return func(vals []any) (float64, error) {
			f, isNum := vals[off].(float64)
			if !isNum {
				if vals[off] == nil {
					return 0, evalErrf("undefined attribute %q", name)
				}
				v, err := normalize(vals[off])
				if err != nil {
					return 0, err
				}
				f, isNum = v.(float64)
				if !isNum {
					return 0, evalErrf("operator needs numbers, got %T", vals[off])
				}
			}
			return f, nil
		}, true

	case Binary:
		switch x.Op {
		case "-", "*", "/":
			l, lok := compileNum(x.L, r)
			rr, rok := compileNum(x.R, r)
			if !lok || !rok {
				return nil, false
			}
			op := x.Op
			return func(vals []any) (float64, error) {
				lv, err := l(vals)
				if err != nil {
					return 0, err
				}
				rv, err := rr(vals)
				if err != nil {
					return 0, err
				}
				switch op {
				case "-":
					return lv - rv, nil
				case "*":
					return lv * rv, nil
				}
				if rv == 0 {
					return 0, evalErrf("division by zero")
				}
				return lv / rv, nil
			}, true
		}
	}
	return nil, false
}

// compiledEntry caches a job's compiled predicates for one resolver
// generation. It is immutable; a resolver change replaces it.
type compiledEntry struct {
	resolver Resolver
	req      *Compiled
	rank     *Compiled
}

// CompiledPredicates returns the job's Requirements and Rank compiled
// against r, reusing the cached programs while the resolver is
// unchanged. Schema pointers are stable across snapshot epochs with an
// unchanged attribute name set, so in steady state this compiles once
// per job and amortizes to a pointer comparison per selection pass.
// Either result is nil when the job leaves that predicate unset.
func (j *Job) CompiledPredicates(r Resolver) (req, rank *Compiled) {
	if e := j.compiled; e != nil && e.resolver == r {
		return e.req, e.rank
	}
	e := &compiledEntry{resolver: r, req: Compile(j.Requirements, r), rank: Compile(j.Rank, r)}
	j.compiled = e
	return e.req, e.rank
}
