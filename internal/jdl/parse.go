package jdl

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Descriptor is a parsed JDL document: an ordered set of attribute
// assignments. Attribute names are case-insensitive, their original
// spelling is preserved for printing.
type Descriptor struct {
	names  []string         // original spelling, in source order
	values map[string]Value // keyed by lowercase name
}

// newDescriptor returns an empty descriptor.
func newDescriptor() *Descriptor {
	return &Descriptor{values: make(map[string]Value)}
}

// set assigns an attribute, replacing any previous value but keeping
// the original position in the attribute order.
func (d *Descriptor) set(name string, v Value) {
	key := strings.ToLower(name)
	if _, ok := d.values[key]; !ok {
		d.names = append(d.names, name)
	}
	d.values[key] = v
}

// get returns the attribute value, looked up case-insensitively.
func (d *Descriptor) get(name string) (Value, bool) {
	v, ok := d.values[strings.ToLower(name)]
	return v, ok
}

// String renders the descriptor in canonical JDL: one aligned
// assignment per line, terminated with semicolons, in source order.
func (d *Descriptor) String() string {
	width := 0
	for _, n := range d.names {
		if len(n) > width {
			width = len(n)
		}
	}
	var b strings.Builder
	for _, n := range d.names {
		v := d.values[strings.ToLower(n)]
		fmt.Fprintf(&b, "%-*s = %s;\n", width, n, v.jdl())
	}
	return b.String()
}

// Parse parses a JDL document.
func Parse(src string) (*Descriptor, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	d := newDescriptor()
	for p.tok.kind != tokEOF {
		name, v, err := p.assignment()
		if err != nil {
			return nil, err
		}
		d.set(name, v)
	}
	return d, nil
}

type parser struct {
	lex *lexer
	tok token
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Line: p.tok.line, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(k tokKind) (token, error) {
	if p.tok.kind != k {
		return token{}, p.errf("expected %v, found %v %q", k, p.tok.kind, p.tok.text)
	}
	t := p.tok
	if err := p.advance(); err != nil {
		return token{}, err
	}
	return t, nil
}

// assignment := Ident '=' value ';'
func (p *parser) assignment() (string, Value, error) {
	name, err := p.expect(tokIdent)
	if err != nil {
		return "", nil, err
	}
	if _, err := p.expect(tokAssign); err != nil {
		return "", nil, err
	}
	v, err := p.value()
	if err != nil {
		return "", nil, err
	}
	if _, err := p.expect(tokSemicolon); err != nil {
		return "", nil, err
	}
	return name.text, v, nil
}

// value := list | expression (collapsed to a literal when constant)
func (p *parser) value() (Value, error) {
	if p.tok.kind == tokLBrace {
		return p.list()
	}
	node, err := p.orExpr()
	if err != nil {
		return nil, err
	}
	if lit, ok := node.(Lit); ok {
		return lit.V, nil
	}
	// Constant-fold pure expressions (no attribute references):
	// "Timeout = 60 * 5;" stores 300. A non-finite result has no
	// literal to render as, so it stays an expression.
	if v, err := node.eval(map[string]any{}); err == nil {
		switch x := v.(type) {
		case float64:
			if math.IsInf(x, 0) || math.IsNaN(x) {
				break
			}
			return Number(x), nil
		case bool:
			return Bool(x), nil
		case string:
			return String(x), nil
		}
	}
	return Expr{Node: node}, nil
}

// list := '{' value (',' value)* '}'  (empty lists allowed)
func (p *parser) list() (Value, error) {
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	var l List
	if p.tok.kind == tokRBrace {
		if err := p.advance(); err != nil {
			return nil, err
		}
		return l, nil
	}
	for {
		v, err := p.value()
		if err != nil {
			return nil, err
		}
		l = append(l, v)
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if _, err := p.expect(tokRBrace); err != nil {
		return nil, err
	}
	return l, nil
}

// orExpr := andExpr ('||' andExpr)*
func (p *parser) orExpr() (ExprNode, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && p.tok.text == "||" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: "||", L: l, R: r}
	}
	return l, nil
}

// andExpr := cmpExpr ('&&' cmpExpr)*
func (p *parser) andExpr() (ExprNode, error) {
	l, err := p.cmpExpr()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && p.tok.text == "&&" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.cmpExpr()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: "&&", L: l, R: r}
	}
	return l, nil
}

var cmpOps = map[string]bool{"==": true, "!=": true, "<": true, "<=": true, ">": true, ">=": true}

// cmpExpr := addExpr (cmpOp addExpr)?
func (p *parser) cmpExpr() (ExprNode, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tokOp && cmpOps[p.tok.text] {
		op := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return Binary{Op: op, L: l, R: r}, nil
	}
	return l, nil
}

// addExpr := mulExpr (('+'|'-') mulExpr)*
func (p *parser) addExpr() (ExprNode, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && (p.tok.text == "+" || p.tok.text == "-") {
		op := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

// mulExpr := unary (('*'|'/') unary)*
func (p *parser) mulExpr() (ExprNode, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && (p.tok.text == "*" || p.tok.text == "/") {
		op := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.unary()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

// unary := ('!' | '-') unary | primary
//
// A minus the lexer did not fold into a number literal negates its
// operand as -1 * x: exact in IEEE arithmetic, and rendered as text
// that parses back to the same tree.
func (p *parser) unary() (ExprNode, error) {
	if p.tok.kind == tokOp && (p.tok.text == "!" || p.tok.text == "-") {
		op := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		if op == "-" {
			return Binary{Op: "*", L: Lit{V: Number(-1)}, R: x}, nil
		}
		return Not{X: x}, nil
	}
	return p.primary()
}

// primary := literal | ref | '(' orExpr ')'
func (p *parser) primary() (ExprNode, error) {
	switch p.tok.kind {
	case tokString:
		v := String(p.tok.text)
		if err := p.advance(); err != nil {
			return nil, err
		}
		return Lit{V: v}, nil
	case tokNumber:
		f, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return nil, p.errf("bad number %q: %v", p.tok.text, err)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return Lit{V: Number(f)}, nil
	case tokBool:
		v := Bool(p.tok.text == "true")
		if err := p.advance(); err != nil {
			return nil, err
		}
		return Lit{V: v}, nil
	case tokIdent:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if strings.EqualFold(name, "other") && p.tok.kind == tokDot {
			if err := p.advance(); err != nil {
				return nil, err
			}
			attr, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			return Ref{Scoped: true, Name: attr.text}, nil
		}
		return Ref{Name: name}, nil
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return inner, nil
	}
	return nil, p.errf("expected value, found %v %q", p.tok.kind, p.tok.text)
}
