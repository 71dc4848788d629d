// Package lex is the one tokeniser of the module's two front ends: XRA
// (package xraparse) and the SQL subset (package sqlfront) both parse the
// token stream it produces, and each rejects the tokens its language does
// not use.  Section 1 of the paper offers the algebra as the formal
// background of both languages over one value domain; this package gives
// them one lexical rule set and one literal rule.
//
// The rules:
//
//   - Blanks are space, tab, CR and LF; `--` comments run to the end of the
//     line.
//   - An Ident is a letter or `_` followed by letters, digits and `_`.  A
//     dot is always punctuation: SQL reads `b.name` and `b . name` as a
//     qualified column, XRA reads touching Ident "." Ident tokens as one
//     dotted relation name.
//   - A Number is digits, then an optional `.` and digits; Cursor.Number
//     converts it to a value.
//   - A String is quoted with `'`, a quote inside it doubled; Text holds
//     the unescaped content.
//   - An Attr is `%` touching a number (XRA's `%1`); Text holds the number.
//     SQL reads it as modulo by that number.  A bare `%` is an operator.
//   - Punct is one of `( ) [ ] , ; ? .`; an Op is one of
//     `= <> != < <= > >= + - * / % ||`.
package lex

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"mra/internal/value"
)

// Kind classifies a token.
type Kind uint8

// The token kinds.
const (
	EOF    Kind = iota // end of input
	Ident              // name or keyword
	Number             // digits [. digits]
	String             // quoted literal
	Attr               // %N
	Punct              // ( ) [ ] , ; ? .
	Op                 // comparison and arithmetic operators
)

// Pos is a 1-based source position; the zero Pos means "unknown".
type Pos struct {
	// Line and Col count lines and bytes from 1.
	Line, Col int32
}

// Token is one lexical token.  Its fields are ordered so a token takes 32
// bytes.
type Token struct {
	// Text is the token's source text; for a String the unescaped content,
	// for an Attr the number after `%`.
	Text string
	// Off is the byte offset of the token's first byte in the source.
	Off int32
	// Pos is the line and column of that byte.
	Pos
	// Kind classifies the token.
	Kind Kind
}

// String renders the token for error messages.
func (t Token) String() string {
	switch t.Kind {
	case EOF:
		return "end of input"
	case Attr:
		return strconv.Quote("%" + t.Text)
	}
	return strconv.Quote(t.Text)
}

// Is reports whether the token is the punctuation or operator sym.
func (t Token) Is(sym string) bool {
	return (t.Kind == Punct || t.Kind == Op) && t.Text == sym
}

// IsWord reports whether the token is the identifier word, in any case.
func (t Token) IsWord(word string) bool {
	return t.Kind == Ident && strings.EqualFold(t.Text, word)
}

// Error is a positioned lexing, parsing or translation error of either
// front end.
type Error struct {
	// Lang is the front end's prefix, "xra" or "sql".
	Lang string
	// Pos is where the error is; the zero Pos prints no position.
	Pos
	// Msg describes the problem.
	Msg string

	unterminated bool
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Line == 0 {
		return e.Lang + ": " + e.Msg
	}
	return fmt.Sprintf("%s: %d:%d: %s", e.Lang, e.Line, e.Col, e.Msg)
}

// Unterminated reports whether err is the lexing error of a source that
// ended inside a string literal, so more input could complete it.
func Unterminated(err error) bool {
	var e *Error
	return errors.As(err, &e) && e.unterminated
}

// Errorf builds an error of the front end lang at the given position.
func Errorf(lang string, at Pos, format string, args ...any) *Error {
	return &Error{Lang: lang, Pos: at, Msg: fmt.Sprintf(format, args...)}
}

// tokens splits src into tokens ending in an EOF token.  Only String
// tokens holding a doubled quote allocate beyond the returned slice; every
// other Text is a slice of src.
func tokens(src string) ([]Token, *Error) {
	if len(src) > math.MaxInt32 {
		return nil, &Error{Msg: "source text longer than 2 GiB"}
	}
	// The served statements take 2.7 (q_star) to 4.4 (a transfer's update)
	// source bytes per token, so one allocation usually holds the stream.
	toks := make([]Token, 0, len(src)/2+2)
	line, lineStart := int32(1), 0
	i := 0
	for {
		for i < len(src) {
			c := src[i]
			if c == '\n' {
				i++
				line, lineStart = line+1, i
			} else if c == ' ' || c == '\t' || c == '\r' {
				i++
			} else if c == '-' && i+1 < len(src) && src[i+1] == '-' {
				for i < len(src) && src[i] != '\n' {
					i++
				}
			} else {
				break
			}
		}
		at := Pos{Line: line, Col: int32(i-lineStart) + 1}
		if i == len(src) {
			return append(toks, Token{Kind: EOF, Off: int32(i), Pos: at}), nil
		}
		start, c := i, src[i]
		var kind Kind
		text := ""
		switch {
		case letterAt(src, i) > 0:
			for n := 1; n > 0 && i < len(src); i += n {
				if n = letterAt(src, i); n == 0 && isDigit(src[i]) {
					n = 1
				}
			}
			kind = Ident
		case isDigit(c):
			i = number(src, i)
			kind = Number
		case c == '\'':
			var escaped bool
			for i++; ; i++ {
				if i == len(src) {
					return nil, &Error{Pos: at, Msg: "unterminated string literal", unterminated: true}
				}
				if src[i] == '\n' {
					line, lineStart = line+1, i+1
				}
				if src[i] != '\'' {
					continue
				}
				if i+1 < len(src) && src[i+1] == '\'' {
					escaped = true
					i++
					continue
				}
				break
			}
			i++
			kind, text = String, src[start+1:i-1]
			if escaped {
				text = strings.ReplaceAll(text, "''", "'")
			}
		case c == '%' && i+1 < len(src) && isDigit(src[i+1]):
			i = number(src, i+1)
			kind, text = Attr, src[start+1:i]
		case strings.IndexByte("()[],;?.", c) >= 0:
			i++
			kind = Punct
		case strings.IndexByte("=<>!+-*/%|", c) >= 0:
			i++
			if i < len(src) {
				switch src[start : i+1] {
				case "<=", "<>", ">=", "!=", "||":
					i++
				}
			}
			if i-start == 1 && (c == '!' || c == '|') {
				return nil, &Error{Pos: at, Msg: fmt.Sprintf("unexpected character %q", c)}
			}
			kind = Op
		default:
			r, _ := utf8.DecodeRuneInString(src[i:])
			return nil, &Error{Pos: at, Msg: fmt.Sprintf("unexpected character %q", r)}
		}
		if kind != String && kind != Attr {
			text = src[start:i]
		}
		toks = append(toks, Token{Kind: kind, Text: text, Off: int32(start), Pos: at})
	}
}

// number returns the end of the number starting at src[i]: digits, then an
// optional dot followed by digits.
func number(src string, i int) int {
	for i < len(src) && isDigit(src[i]) {
		i++
	}
	if i+1 < len(src) && src[i] == '.' && isDigit(src[i+1]) {
		i++
		for i < len(src) && isDigit(src[i]) {
			i++
		}
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// letterAt returns the length in bytes of the identifier letter that starts
// at src[i] — an ASCII letter, `_`, or the UTF-8 encoding of a Unicode
// letter — or 0 when none does.
func letterAt(src string, i int) int {
	if c := src[i]; c < utf8.RuneSelf && ('a' <= c|0x20 && c|0x20 <= 'z' || c == '_') {
		return 1
	}
	if r, n := utf8.DecodeRuneInString(src[i:]); r >= utf8.RuneSelf && unicode.IsLetter(r) {
		return n
	}
	return 0
}

// Cursor is a recursive-descent parser's place in one source's token stream.
type Cursor struct {
	// Lang prefixes the errors the cursor reports, "xra" or "sql".
	Lang string
	// Src is the lexed source.
	Src string
	// Toks is Src's token stream, ending in an EOF token.
	Toks []Token
	// Idx indexes the next token; a parser backtracks by restoring it.
	Idx int
}

// NewCursor lexes src for the front end lang.
func NewCursor(lang, src string) (Cursor, error) {
	toks, err := tokens(src)
	if err != nil {
		err.Lang = lang
		return Cursor{}, err
	}
	return Cursor{Lang: lang, Src: src, Toks: toks}, nil
}

// Peek returns the next token without consuming it.
func (c *Cursor) Peek() Token { return c.Toks[c.Idx] }

// Next consumes and returns the next token; at the end it keeps returning
// the EOF token.
func (c *Cursor) Next() Token {
	t := c.Toks[c.Idx]
	if t.Kind != EOF {
		c.Idx++
	}
	return t
}

// Accept consumes the next token when it is the punctuation or operator sym.
func (c *Cursor) Accept(sym string) bool {
	if c.Toks[c.Idx].Is(sym) {
		c.Idx++
		return true
	}
	return false
}

// AcceptWord consumes the next token when it is the identifier word.
func (c *Cursor) AcceptWord(word string) bool {
	if c.Toks[c.Idx].IsWord(word) {
		c.Idx++
		return true
	}
	return false
}

// Expect consumes the next token, which must be the punctuation or
// operator sym.
func (c *Cursor) Expect(sym string) (Token, error) {
	t := c.Next()
	if !t.Is(sym) {
		return t, c.Errorf(t.Pos, "expected %q, found %s", sym, t)
	}
	return t, nil
}

// ExpectWord consumes the next token, which must be the identifier word.
func (c *Cursor) ExpectWord(word string) (Token, error) {
	t := c.Next()
	if !t.IsWord(word) {
		return t, c.Errorf(t.Pos, "expected %s, found %s", word, t)
	}
	return t, nil
}

// Errorf builds an error of the cursor's front end at the given position.
func (c *Cursor) Errorf(at Pos, format string, args ...any) error {
	return Errorf(c.Lang, at, format, args...)
}

// Literal reads a constant: a number, optionally negated, a string, or
// TRUE, FALSE or NULL in any case.  A negated number converts its signed
// text, so the least int64 is a literal.
func (c *Cursor) Literal() (value.Value, error) {
	t := c.Next()
	switch {
	case t.Kind == Number:
		return c.Number(t, false)
	case t.Kind == String:
		return value.NewString(t.Text), nil
	case t.Is("-"):
		n := c.Next()
		if n.Kind != Number {
			return value.Null, c.Errorf(n.Pos, "expected a number after '-', found %s", n)
		}
		return c.Number(n, true)
	case t.IsWord("true"):
		return value.NewBool(true), nil
	case t.IsWord("false"):
		return value.NewBool(false), nil
	case t.IsWord("null"):
		return value.Null, nil
	}
	return value.Null, c.Errorf(t.Pos, "expected a literal value, found %s", t)
}

// Number converts the Number or Attr token t, negated when neg is set, to
// a value: an int when the text has no dot, else a float.  It is the one
// literal rule of both front ends; a number outside the int64 or float64
// range is an error.
func (c *Cursor) Number(t Token, neg bool) (value.Value, error) {
	if strings.IndexByte(t.Text, '.') >= 0 {
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return value.Null, c.Errorf(t.Pos, "number %s is out of range", t.Text)
		}
		if neg {
			f = -f
		}
		return value.NewFloat(f), nil
	}
	u, err := strconv.ParseUint(t.Text, 10, 64)
	if limit := uint64(math.MaxInt64); err != nil || !neg && u > limit || neg && u > limit+1 {
		return value.Null, c.Errorf(t.Pos, "integer %s is out of the 64-bit range", t.Text)
	}
	if neg {
		// 2^63 wraps to the least int64, which is its negation.
		return value.NewInt(-int64(u)), nil
	}
	return value.NewInt(int64(u)), nil
}
