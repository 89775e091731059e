// Package jdl implements the Job Description Language used to submit
// jobs to the CrossBroker (Figure 2 of the paper): a classad-style
// attribute list such as
//
//	Executable      = "interactive_mpich-g2_app";
//	JobType         = {"interactive", "mpich-g2"};
//	NodeNumber      = 2;
//	Arguments       = "-n";
//	StreamingMode   = "reliable";
//	MachineAccess   = "shared";
//	PerformanceLoss = 10;
//	Requirements    = other.Arch == "i686" && other.MemoryMB >= 512;
//
// The package provides a lexer and parser for the attribute syntax, a
// small boolean/relational expression language for the Requirements
// and Rank attributes (evaluated against a site's attribute set during
// matchmaking), and extraction into the typed Job structure consumed
// by the broker.
package jdl

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind enumerates lexical token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokString
	tokNumber
	tokBool
	tokAssign    // =
	tokSemicolon // ;
	tokComma     // ,
	tokLBrace    // {
	tokRBrace    // }
	tokLParen    // (
	tokRParen    // )
	tokDot       // .
	tokOp        // == != <= >= < > && || !
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokString:
		return "string"
	case tokNumber:
		return "number"
	case tokBool:
		return "boolean"
	case tokAssign:
		return "'='"
	case tokSemicolon:
		return "';'"
	case tokComma:
		return "','"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokDot:
		return "'.'"
	case tokOp:
		return "operator"
	}
	return "unknown token"
}

type token struct {
	kind tokKind
	text string
	line int
}

// SyntaxError describes a lexical or grammatical error with its line.
type SyntaxError struct {
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string { return fmt.Sprintf("jdl: line %d: %s", e.Line, e.Msg) }

type lexer struct {
	src  string
	pos  int
	line int
	// prev is the kind of the last emitted token, used to decide
	// whether '-' begins a negative literal or is the binary minus.
	prev tokKind
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, prev: tokEOF} }

// afterOperand reports whether the previous token can end an operand,
// making a following '-' a binary operator rather than a sign.
func (l *lexer) afterOperand() bool {
	switch l.prev {
	case tokIdent, tokString, tokNumber, tokBool, tokRParen, tokRBrace:
		return true
	}
	return false
}

func (l *lexer) errf(format string, args ...any) error {
	return &SyntaxError{Line: l.line, Msg: fmt.Sprintf(format, args...)}
}

// next scans and returns the next token.
func (l *lexer) next() (token, error) {
	t, err := l.scan()
	if err == nil {
		l.prev = t.kind
	}
	return t, err
}

func (l *lexer) scan() (token, error) {
	l.skipSpaceAndComments()
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, line: l.line}, nil
	}
	c := l.src[l.pos]
	negLiteral := c == '-' && !l.afterOperand() &&
		l.pos+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+1]))
	switch {
	case c == '"':
		return l.scanString()
	case unicode.IsDigit(rune(c)) || negLiteral:
		return l.scanNumber()
	case isIdentStart(c):
		return l.scanIdent()
	}
	start := l.line
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "==", "!=", "<=", ">=", "&&", "||":
		l.pos += 2
		return token{kind: tokOp, text: two, line: start}, nil
	}
	l.pos++
	switch c {
	case '=':
		return token{kind: tokAssign, text: "=", line: start}, nil
	case ';':
		return token{kind: tokSemicolon, text: ";", line: start}, nil
	case ',':
		return token{kind: tokComma, text: ",", line: start}, nil
	case '{':
		return token{kind: tokLBrace, text: "{", line: start}, nil
	case '}':
		return token{kind: tokRBrace, text: "}", line: start}, nil
	case '(':
		return token{kind: tokLParen, text: "(", line: start}, nil
	case ')':
		return token{kind: tokRParen, text: ")", line: start}, nil
	case '.':
		return token{kind: tokDot, text: ".", line: start}, nil
	case '<', '>', '!', '+', '-', '*', '/':
		return token{kind: tokOp, text: string(c), line: start}, nil
	}
	return token{}, l.errf("unexpected character %q", c)
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '#' || strings.HasPrefix(l.src[l.pos:], "//"):
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case strings.HasPrefix(l.src[l.pos:], "/*"):
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.line += strings.Count(l.src[l.pos:], "\n")
				l.pos = len(l.src)
				return
			}
			l.line += strings.Count(l.src[l.pos:l.pos+2+end+2], "\n")
			l.pos += 2 + end + 2
		default:
			return
		}
	}
}

func (l *lexer) scanString() (token, error) {
	start := l.line
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case '"':
			l.pos++
			return token{kind: tokString, text: b.String(), line: start}, nil
		case '\\':
			if l.pos+1 >= len(l.src) {
				return token{}, l.errf("unterminated escape")
			}
			l.pos++
			switch esc := l.src[l.pos]; esc {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '"', '\\':
				b.WriteByte(esc)
			default:
				return token{}, l.errf("unknown escape \\%c", esc)
			}
			l.pos++
		case '\n':
			return token{}, l.errf("newline in string literal")
		default:
			b.WriteByte(c)
			l.pos++
		}
	}
	return token{}, l.errf("unterminated string literal")
}

// scanNumber reads -?digits[.digits][(e|E)[+|-]digits]. An exponent
// marker not followed by digits ends the number before it, so "1e"
// stays the number 1 and the identifier e.
func (l *lexer) scanNumber() (token, error) {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '.' && !seenDot && l.pos+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+1])) {
			seenDot = true
			l.pos++
			continue
		}
		if !unicode.IsDigit(rune(c)) {
			break
		}
		l.pos++
	}
	if i := l.pos; i < len(l.src) && (l.src[i] == 'e' || l.src[i] == 'E') {
		i++
		if i < len(l.src) && (l.src[i] == '+' || l.src[i] == '-') {
			i++
		}
		digits := i
		for i < len(l.src) && unicode.IsDigit(rune(l.src[i])) {
			i++
		}
		if i > digits {
			l.pos = i
		}
	}
	return token{kind: tokNumber, text: l.src[start:l.pos], line: l.line}, nil
}

func (l *lexer) scanIdent() (token, error) {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	text := l.src[start:l.pos]
	switch strings.ToLower(text) {
	case "true", "false":
		return token{kind: tokBool, text: strings.ToLower(text), line: l.line}, nil
	}
	return token{kind: tokIdent, text: text, line: l.line}, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || ('0' <= c && c <= '9') || c == '-'
}
