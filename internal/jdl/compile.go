package jdl

import "strings"

// This file lowers Requirements/Rank expression trees into closure
// chains over a flat attribute slice. The interpreted path
// (ExprNode.eval) walks the AST and hashes map keys for every
// attribute reference on every candidate; the compiled path resolves
// each reference to a slice offset once, constant-folds literals, and
// keeps boolean and numeric subtrees unboxed, and compares an attribute
// with a number or string literal without boxing either, so
// per-candidate evaluation is a few closure calls with zero
// allocations. The broker compiles each job class's predicates once per
// information-system schema (Classes) and reuses them across every job
// of the class and every site of every selection pass.

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
		v, err := x.eval(nil)
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
		if b, ok := compileBool(x, r); ok {
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
		// "+" over operands of any type, or arithmetic on an operand
		// compileNum cannot type.
		l, rr := compileAny(x.L, r), compileAny(x.R, r)
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
			generic := func(vals []any) (bool, error) {
				lv, err := l(vals)
				if err != nil {
					return false, err
				}
				rv, err := rr(vals)
				if err != nil {
					return false, err
				}
				return compareBool(op, lv, rv)
			}
			if f := compareLit(x, r, generic); f != nil {
				return f, true
			}
			return generic, true
		}
	}
	return nil, false
}

// compareLit specializes an attribute compared with a literal on its
// right, the shape Requirements take: the program reads the
// attribute's slot unboxed and compares it with the constant directly.
// A slot holding any other dynamic type, or nothing, goes to slow, the
// generic comparison, so the value and the error are the
// interpreter's. Number literals take every comparison operator,
// string literals == and != (folding case, as compareBool does);
// ordering on strings stays generic. nil means the comparison has no
// such shape.
func compareLit(x Binary, r Resolver, slow func(vals []any) (bool, error)) func(vals []any) (bool, error) {
	op := x.Op
	ref, isRef := x.L.(Ref)
	lit, isLit := x.R.(Lit)
	if !isRef || !isLit {
		return nil
	}
	off, ok := r.Offset(ref.Name)
	if !ok {
		return nil
	}
	switch k := lit.V.(type) {
	case Number:
		return compareNumLit(op, off, float64(k), slow)
	case String:
		if op == "==" || op == "!=" {
			neq, k := op == "!=", string(k)
			return func(vals []any) (bool, error) {
				if s, ok := vals[off].(string); ok {
					return (s == k || strings.EqualFold(s, k)) != neq, nil
				}
				return slow(vals)
			}
		}
	}
	return nil
}

// compareNumLit compares the number in slot off with k, one closure
// per operator so no operator dispatch is left at evaluation time.
func compareNumLit(op string, off int, k float64, slow func(vals []any) (bool, error)) func(vals []any) (bool, error) {
	switch op {
	case "==":
		return func(vals []any) (bool, error) {
			if f, ok := vals[off].(float64); ok {
				return f == k, nil
			}
			return slow(vals)
		}
	case "!=":
		return func(vals []any) (bool, error) {
			if f, ok := vals[off].(float64); ok {
				return f != k, nil
			}
			return slow(vals)
		}
	case "<":
		return func(vals []any) (bool, error) {
			if f, ok := vals[off].(float64); ok {
				return f < k, nil
			}
			return slow(vals)
		}
	case "<=":
		return func(vals []any) (bool, error) {
			if f, ok := vals[off].(float64); ok {
				return f <= k, nil
			}
			return slow(vals)
		}
	case ">":
		return func(vals []any) (bool, error) {
			if f, ok := vals[off].(float64); ok {
				return f > k, nil
			}
			return slow(vals)
		}
	}
	return func(vals []any) (bool, error) {
		if f, ok := vals[off].(float64); ok {
			return f >= k, nil
		}
		return slow(vals)
	}
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

// compiledEntry holds one class's programs for one resolver
// generation. It is immutable, so every job of the class holds the
// same entry; a resolver change replaces it.
type compiledEntry struct {
	resolver Resolver
	req      *Compiled
	rank     *Compiled
}

// Classes shares compiled predicates among the jobs of one class, the
// jobs whose Requirements and Rank are the same expression trees, so
// a class compiles once per resolver however many jobs it has and
// however often each was parsed. Sharing is safe because a program is
// a pure function of its tree and its resolver: it holds constants and
// offsets, never a job. The key is the pair of trees itself (node
// values compare structurally), so no expression is rendered. Entries
// are kept for the latest resolver only, as a job's own cache is, so
// a schema change drops the previous generation's programs.
//
// The zero value is ready to use. A Classes belongs to one owner (a
// broker) on one Sim, like the jobs it compiles for, and is unlocked.
type Classes struct {
	resolver Resolver
	byClass  map[classKey]*compiledEntry
}

// classKey is a class: its Requirements and Rank trees, nil where the
// job leaves the predicate unset.
type classKey struct{ req, rank ExprNode }

// entry returns j's class's programs against r, compiling them on the
// class's first job. A nil Classes, or a tree that cannot key a map,
// compiles for j alone.
func (c *Classes) entry(j *Job, r Resolver) *compiledEntry {
	share := c != nil && shareable(j.Requirements) && shareable(j.Rank)
	var key classKey
	if share {
		if c.resolver != r {
			clear(c.byClass)
			c.resolver = r
		}
		if j.Requirements != nil {
			key.req = j.Requirements.Node
		}
		if j.Rank != nil {
			key.rank = j.Rank.Node
		}
		if e := c.byClass[key]; e != nil {
			return e
		}
	}
	e := &compiledEntry{resolver: r, req: Compile(j.Requirements, r), rank: Compile(j.Rank, r)}
	if share {
		if c.byClass == nil {
			c.byClass = make(map[classKey]*compiledEntry)
		}
		c.byClass[key] = e
	}
	return e
}

// shareable reports whether e can key a class: absent, or a tree of
// the parser's node types over string, number and boolean literals,
// which compare by value. Any other tree would panic as a map key (a
// list literal, a caller's own node type) or never equal itself (a NaN
// literal).
func shareable(e *Expr) bool {
	return e == nil || shareableNode(e.Node)
}

func shareableNode(n ExprNode) bool {
	switch x := n.(type) {
	case Lit:
		switch v := x.V.(type) {
		case String, Bool:
			return true
		case Number:
			return v == v
		}
	case Ref:
		return true
	case Not:
		return shareableNode(x.X)
	case Binary:
		return shareableNode(x.L) && shareableNode(x.R)
	}
	return false
}

// CompiledPredicates returns the job's Requirements and Rank compiled
// against r, reusing the job's cached programs while the resolver is
// unchanged and otherwise its class's programs in classes (nil
// compiles for this job alone). Schema pointers are stable across
// snapshot epochs with an unchanged attribute name set, so in steady
// state this is a pointer comparison per selection pass, and a class
// compiles once. Either result is nil when the job leaves that
// predicate unset; a job with neither costs nothing.
func (j *Job) CompiledPredicates(r Resolver, classes *Classes) (req, rank *Compiled) {
	if j.Requirements == nil && j.Rank == nil {
		return nil, nil
	}
	if e := j.compiled; e != nil && e.resolver == r {
		return e.req, e.rank
	}
	e := classes.entry(j, r)
	j.compiled = e
	return e.req, e.rank
}
