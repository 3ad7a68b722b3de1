// Package spectext is the lexer shared by the repo's three spec
// grammars: strategy specs (internal/core), censor specs
// (internal/censor) and topology specs (internal/topo). Each grammar
// keeps its statements, value parsers, messages and canonical encoder;
// this package holds what they have in common — a cursor over the
// text, the whitespace rule, the byte classes of names and values, the
// parenthesised argument list "(a, k=v, …)", and the spelling of
// durations in canonical text.
package spectext

import (
	"fmt"
	"strings"
	"time"
)

// Scanner is a cursor over one spec's text.
type Scanner struct {
	grammar string
	s       string
	i       int
}

// NewScanner returns a scanner at the start of text. grammar ("spec",
// "censor", "topo") prefixes every error Errorf makes.
func NewScanner(grammar, text string) *Scanner {
	return &Scanner{grammar: grammar, s: text}
}

// EOF reports whether the whole text has been consumed.
func (sc *Scanner) EOF() bool { return sc.i >= len(sc.s) }

// Rest returns the text not yet consumed.
func (sc *Scanner) Rest() string { return sc.s[sc.i:] }

// Space skips blanks, tabs and line breaks.
func (sc *Scanner) Space() {
	for !sc.EOF() {
		switch sc.s[sc.i] {
		case ' ', '\t', '\n', '\r':
			sc.i++
		default:
			return
		}
	}
}

// Consume consumes c if it is the next byte.
func (sc *Scanner) Consume(c byte) bool {
	if !sc.EOF() && sc.s[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

// Prefix consumes p if the text not yet consumed starts with it.
func (sc *Scanner) Prefix(p string) bool {
	if strings.HasPrefix(sc.Rest(), p) {
		sc.i += len(p)
		return true
	}
	return false
}

// Run consumes the longest run of bytes in class, possibly empty.
func (sc *Scanner) Run(class func(byte) bool) string {
	start := sc.i
	for !sc.EOF() && class(sc.s[sc.i]) {
		sc.i++
	}
	return sc.s[start:sc.i]
}

// Errorf formats an error prefixed with the grammar's name.
func (sc *Scanner) Errorf(format string, a ...any) error {
	return fmt.Errorf(sc.grammar+": "+format, a...)
}

// Alnum is the class of ASCII letters and digits: the censor grammar's
// statement keywords.
func Alnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// Word adds '-', '_', '.' and '+' to Alnum: names, argument keys and
// values — word lists joined with '+', dotted quads, durations, signed
// numbers.
func Word(c byte) bool {
	return Alnum(c) || c == '-' || c == '_' || c == '.' || c == '+'
}

// Ref adds ':' to Word so topology bindings can namespace their
// references ("ipf:gfw-new").
func Ref(c byte) bool { return Word(c) || c == ':' }

// Duration renders d for canonical text: d.String() with the micro
// sign spelled "u", which keeps sub-millisecond values inside Word so
// the text parses back (time.ParseDuration reads both spellings).
func Duration(d time.Duration) string {
	return strings.Replace(d.String(), "µ", "u", 1)
}

// Arg is one parsed argument: bare ("rexmit") or key=value.
type Arg struct {
	Key string // "" for a bare token
	Val string
}

// Label names the argument in errors: the key for key=value, the token
// itself when bare.
func (a Arg) Label() string {
	if a.Key != "" {
		return a.Key
	}
	return a.Val
}

// Args parses an optional parenthesised argument list
//
//	"(" [arg {"," arg}] ")"    arg = word | word "=" value
//
// with whitespace allowed around each arg, a word a run of Word and a
// value a run of valueClass. owner names the statement in errors. No
// list at all, like an empty one, yields nil.
func (sc *Scanner) Args(owner string, valueClass func(byte) bool) ([]Arg, error) {
	if !sc.Consume('(') {
		return nil, nil
	}
	var out []Arg
	for {
		sc.Space()
		if sc.Consume(')') {
			return out, nil
		}
		tok := sc.Run(Word)
		if tok == "" {
			return nil, sc.Errorf("%s: expected attribute, got %q", owner, sc.Rest())
		}
		a := Arg{Val: tok}
		if sc.Consume('=') {
			a.Key = tok
			a.Val = sc.Run(valueClass)
			if a.Val == "" {
				return nil, sc.Errorf("%s: missing value for %q", owner, a.Key)
			}
		}
		out = append(out, a)
		sc.Space()
		if sc.Consume(',') {
			continue
		}
		if sc.Consume(')') {
			return out, nil
		}
		return nil, sc.Errorf("%s: expected ',' or ')', got %q", owner, sc.Rest())
	}
}
