package xraparse

import (
	"fmt"
	"strconv"
	"strings"

	"mra/internal/algebra"
	"mra/internal/scalar"
	"mra/internal/schema"
	"mra/internal/stmt"
	"mra/internal/value"
)

// Transaction is one parsed transaction: a program to be executed atomically.
type Transaction struct {
	// Program is the statement sequence inside the transaction brackets.
	Program stmt.Program
	// Explicit reports whether the transaction was written with begin/end
	// brackets (false for a bare top-level statement, which forms its own
	// single-statement transaction).
	Explicit bool
}

// ParseExpression parses a single relational expression.
func ParseExpression(src string) (algebra.Expr, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectEOF(); err != nil {
		return nil, err
	}
	return e, nil
}

// ParseStatement parses a single statement (without a trailing semicolon).
func ParseStatement(src string) (stmt.Statement, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	s, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	// Allow an optional trailing semicolon.
	if p.peek().kind == tokPunct && p.peek().text == ";" {
		p.next()
	}
	if err := p.expectEOF(); err != nil {
		return nil, err
	}
	return s, nil
}

// ParseProgram parses a semicolon-separated statement sequence into a single
// program (Definition 4.2).
func ParseProgram(src string) (stmt.Program, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	prog, err := p.parseProgram(func(t token) bool { return t.kind == tokEOF })
	if err != nil {
		return nil, err
	}
	if err := p.expectEOF(); err != nil {
		return nil, err
	}
	return prog, nil
}

// ParseScript parses a whole script into a sequence of transactions: a
// `begin ... end` block forms one transaction; every bare statement outside
// such a block forms its own single-statement transaction.
func ParseScript(src string) ([]Transaction, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	var txs []Transaction
	for {
		t := p.peek()
		if t.kind == tokEOF {
			return txs, nil
		}
		if t.kind == tokPunct && t.text == ";" {
			p.next()
			continue
		}
		if t.kind == tokIdent && strings.EqualFold(t.text, "begin") {
			p.next()
			prog, err := p.parseProgram(func(t token) bool {
				return t.kind == tokIdent && strings.EqualFold(t.text, "end")
			})
			if err != nil {
				return nil, err
			}
			if _, err := p.expectIdent("end"); err != nil {
				return nil, err
			}
			if t := p.peek(); t.kind == tokPunct && t.text == ";" {
				p.next()
			}
			txs = append(txs, Transaction{Program: prog, Explicit: true})
			continue
		}
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		if t := p.peek(); t.kind == tokPunct && t.text == ";" {
			p.next()
		}
		txs = append(txs, Transaction{Program: stmt.Program{s}})
	}
}

// OpenBlock reports whether src opens more `begin` blocks than it closes
// with `end`, so a shell reading a script line by line must wait for more
// input before submitting it.  Only whole begin/end identifier tokens count,
// never those words inside longer identifiers, string literals or `--`
// comments.  Input that does not lex reports false: submitting it lets
// ParseScript report the error.
func OpenBlock(src string) bool {
	toks, err := newLexer(src).lex()
	if err != nil {
		return false
	}
	depth := 0
	for _, t := range toks {
		switch {
		case t.kind != tokIdent:
		case strings.EqualFold(t.text, "begin"):
			depth++
		case strings.EqualFold(t.text, "end"):
			depth--
		}
	}
	return depth > 0
}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	idx  int
}

func newParser(src string) (*parser, error) {
	toks, err := newLexer(src).lex()
	if err != nil {
		return nil, err
	}
	return &parser{toks: toks}, nil
}

func (p *parser) peek() token { return p.toks[p.idx] }

func (p *parser) next() token {
	t := p.toks[p.idx]
	if t.kind != tokEOF {
		p.idx++
	}
	return t
}

func (p *parser) errorf(t token, format string, args ...any) error {
	return &SyntaxError{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expectEOF() error {
	if t := p.peek(); t.kind != tokEOF {
		return p.errorf(t, "unexpected %s after end of input", t)
	}
	return nil
}

func (p *parser) expectPunct(s string) (token, error) {
	t := p.next()
	if t.kind != tokPunct || t.text != s {
		return t, p.errorf(t, "expected %q, found %s", s, t)
	}
	return t, nil
}

func (p *parser) expectIdent(word string) (token, error) {
	t := p.next()
	if t.kind != tokIdent || !strings.EqualFold(t.text, word) {
		return t, p.errorf(t, "expected %q, found %s", word, t)
	}
	return t, nil
}

// peekIsPunct reports whether the next token is the given punctuation.
func (p *parser) peekIsPunct(s string) bool {
	t := p.peek()
	return t.kind == tokPunct && t.text == s
}

// ---------------------------------------------------------------------------
// Statements and programs
// ---------------------------------------------------------------------------

func (p *parser) parseProgram(stop func(token) bool) (stmt.Program, error) {
	var prog stmt.Program
	for {
		t := p.peek()
		if stop(t) {
			return prog, nil
		}
		if t.kind == tokPunct && t.text == ";" {
			p.next()
			continue
		}
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		prog = append(prog, s)
		if t := p.peek(); t.kind == tokPunct && t.text == ";" {
			p.next()
		} else if !stop(p.peek()) && p.peek().kind != tokEOF {
			return nil, p.errorf(p.peek(), "expected \";\" between statements, found %s", p.peek())
		}
	}
}

func (p *parser) parseStatement() (stmt.Statement, error) {
	t := p.peek()
	switch {
	case t.kind == tokPunct && t.text == "?":
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return stmt.Query{Source: e}, nil

	case t.kind == tokIdent && strings.EqualFold(t.text, "insert"):
		return p.parseInsertDelete(true)
	case t.kind == tokIdent && strings.EqualFold(t.text, "delete"):
		return p.parseInsertDelete(false)
	case t.kind == tokIdent && strings.EqualFold(t.text, "update"):
		return p.parseUpdate()
	case t.kind == tokIdent && strings.EqualFold(t.text, "analyze"):
		return p.parseAnalyze()

	case t.kind == tokIdent:
		// Either an assignment "name = expr" or a bare expression used as a
		// query.  Disambiguate on the "=" following a bare identifier.
		if p.idx+1 < len(p.toks) {
			nxt := p.toks[p.idx+1]
			if nxt.kind == tokOp && nxt.text == "=" {
				name := p.next().text
				p.next() // consume '='
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				return stmt.Assign{Name: name, Source: e}, nil
			}
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return stmt.Query{Source: e}, nil

	default:
		return nil, p.errorf(t, "expected a statement, found %s", t)
	}
}

func (p *parser) parseInsertDelete(insert bool) (stmt.Statement, error) {
	p.next() // keyword
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	target := p.next()
	if target.kind != tokIdent {
		return nil, p.errorf(target, "expected a relation name, found %s", target)
	}
	if _, err := p.expectPunct(","); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if insert {
		return stmt.Insert{Target: target.text, Source: e}, nil
	}
	return stmt.Delete{Target: target.text, Source: e}, nil
}

// parseAnalyze parses analyze(R), the statistics-rebuild statement, and
// analyze(), which summarises every visible relation (SQL's bare ANALYZE).
func (p *parser) parseAnalyze() (stmt.Statement, error) {
	p.next() // analyze
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	if p.peekIsPunct(")") {
		p.next()
		return stmt.Analyze{}, nil
	}
	target := p.next()
	if target.kind != tokIdent {
		return nil, p.errorf(target, "expected a relation name, found %s", target)
	}
	if _, err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return stmt.Analyze{Target: target.text}, nil
}

func (p *parser) parseUpdate() (stmt.Statement, error) {
	p.next() // update
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	target := p.next()
	if target.kind != tokIdent {
		return nil, p.errorf(target, "expected a relation name, found %s", target)
	}
	if _, err := p.expectPunct(","); err != nil {
		return nil, err
	}
	sel, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct(","); err != nil {
		return nil, err
	}
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var items []scalar.Expr
	for {
		item, err := p.parseScalar()
		if err != nil {
			return nil, err
		}
		items = append(items, item)
		if p.peekIsPunct(",") {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if _, err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return stmt.Update{Target: target.text, Selection: sel, Items: items}, nil
}

// ---------------------------------------------------------------------------
// Relational expressions
// ---------------------------------------------------------------------------

func (p *parser) parseExpr() (algebra.Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokPunct && t.text == "[":
		return p.parseLiteral()
	case t.kind == tokPunct && t.text == "(":
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokIdent:
		return p.parseOperatorOrRelation()
	default:
		return nil, p.errorf(t, "expected a relational expression, found %s", t)
	}
}

func (p *parser) parseOperatorOrRelation() (algebra.Expr, error) {
	name := p.next()
	keyword := strings.ToLower(name.text)
	switch keyword {
	case "union", "diff", "difference", "intersect", "product":
		left, right, err := p.parseBinaryArgs()
		if err != nil {
			return nil, err
		}
		switch keyword {
		case "union":
			return algebra.NewUnion(left, right), nil
		case "diff", "difference":
			return algebra.NewDifference(left, right), nil
		case "intersect":
			return algebra.NewIntersect(left, right), nil
		default:
			return algebra.NewProduct(left, right), nil
		}

	case "select":
		cond, err := p.parseBracketPredicate()
		if err != nil {
			return nil, err
		}
		in, err := p.parseUnaryArg()
		if err != nil {
			return nil, err
		}
		return algebra.NewSelect(cond, in), nil

	case "join":
		cond, err := p.parseBracketPredicate()
		if err != nil {
			return nil, err
		}
		left, right, err := p.parseBinaryArgs()
		if err != nil {
			return nil, err
		}
		return algebra.NewJoin(cond, left, right), nil

	case "project", "xproject":
		if _, err := p.expectPunct("["); err != nil {
			return nil, err
		}
		var items []scalar.Expr
		for {
			item, err := p.parseScalar()
			if err != nil {
				return nil, err
			}
			items = append(items, item)
			if p.peekIsPunct(",") {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		in, err := p.parseUnaryArg()
		if err != nil {
			return nil, err
		}
		// A projection whose items are all plain attribute references is the
		// basic positional projection; anything else is the extended form.
		cols := make([]int, 0, len(items))
		plain := true
		for _, it := range items {
			a, ok := it.(scalar.Attr)
			if !ok {
				plain = false
				break
			}
			cols = append(cols, a.Index)
		}
		if plain && keyword == "project" {
			return algebra.NewProject(cols, in), nil
		}
		return algebra.NewExtProject(items, nil, in), nil

	case "unique", "dedup":
		in, err := p.parseUnaryArg()
		if err != nil {
			return nil, err
		}
		return algebra.NewUnique(in), nil

	case "tclose":
		in, err := p.parseUnaryArg()
		if err != nil {
			return nil, err
		}
		return algebra.NewTClose(in), nil

	case "groupby":
		return p.parseGroupBy()

	default:
		// A bare identifier is a database (or temporary) relation reference.
		return algebra.NewRel(name.text), nil
	}
}

func (p *parser) parseBinaryArgs() (algebra.Expr, algebra.Expr, error) {
	if _, err := p.expectPunct("("); err != nil {
		return nil, nil, err
	}
	left, err := p.parseExpr()
	if err != nil {
		return nil, nil, err
	}
	if _, err := p.expectPunct(","); err != nil {
		return nil, nil, err
	}
	right, err := p.parseExpr()
	if err != nil {
		return nil, nil, err
	}
	if _, err := p.expectPunct(")"); err != nil {
		return nil, nil, err
	}
	return left, right, nil
}

func (p *parser) parseUnaryArg() (algebra.Expr, error) {
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	in, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return in, nil
}

func (p *parser) parseBracketPredicate() (scalar.Predicate, error) {
	if _, err := p.expectPunct("["); err != nil {
		return nil, err
	}
	cond, err := p.parsePredicate()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct("]"); err != nil {
		return nil, err
	}
	return cond, nil
}

// parseGroupBy parses groupby[(α), AGG, %p, AGG, %p, ...](E): the grouping
// list followed by one or more aggregate applications computed in one pass.
// The grouping list may be empty: groupby[(), CNT, %1](E).
func (p *parser) parseGroupBy() (algebra.Expr, error) {
	if _, err := p.expectPunct("["); err != nil {
		return nil, err
	}
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var groupCols []int
	for !p.peekIsPunct(")") {
		t := p.next()
		if t.kind != tokAttr {
			return nil, p.errorf(t, "expected a grouping attribute %%i, found %s", t)
		}
		idx, err := attrIndex(t)
		if err != nil {
			return nil, err
		}
		groupCols = append(groupCols, idx)
		if p.peekIsPunct(",") {
			p.next()
		}
	}
	p.next() // ')'
	var aggs []algebra.AggSpec
	for {
		if _, err := p.expectPunct(","); err != nil {
			return nil, err
		}
		aggTok := p.next()
		if aggTok.kind != tokIdent {
			return nil, p.errorf(aggTok, "expected an aggregate function, found %s", aggTok)
		}
		agg, err := algebra.ParseAggregate(aggTok.text)
		if err != nil {
			return nil, p.errorf(aggTok, "%v", err)
		}
		if _, err := p.expectPunct(","); err != nil {
			return nil, err
		}
		attrTok := p.next()
		if attrTok.kind != tokAttr {
			return nil, p.errorf(attrTok, "expected an aggregate attribute %%i, found %s", attrTok)
		}
		aggCol, err := attrIndex(attrTok)
		if err != nil {
			return nil, err
		}
		aggs = append(aggs, algebra.AggSpec{Fn: agg, Col: aggCol})
		if !p.peekIsPunct(",") {
			break
		}
	}
	if _, err := p.expectPunct("]"); err != nil {
		return nil, err
	}
	in, err := p.parseUnaryArg()
	if err != nil {
		return nil, err
	}
	return algebra.NewGroupByMulti(groupCols, aggs, in), nil
}

// parseLiteral parses a literal relation [(v, ...), (v, ...)], inferring an
// anonymous schema from the first row's value domains.
func (p *parser) parseLiteral() (algebra.Expr, error) {
	open := p.next() // '['
	var rows [][]value.Value
	for !p.peekIsPunct("]") {
		if _, err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var row []value.Value
		for {
			v, err := p.parseValue()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if p.peekIsPunct(",") {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if p.peekIsPunct(",") {
			p.next()
		}
	}
	p.next() // ']'
	if len(rows) == 0 {
		return nil, p.errorf(open, "literal relation must contain at least one row")
	}
	attrs := make([]schema.Attribute, len(rows[0]))
	for i, v := range rows[0] {
		attrs[i] = schema.Attribute{Type: v.Kind()}
	}
	return algebra.Literal{Rel: schema.Anonymous(attrs...), Rows: rows}, nil
}

// parseValue parses a constant value: number, string, true/false, null, or a
// negated number.
func (p *parser) parseValue() (value.Value, error) {
	t := p.next()
	switch {
	case t.kind == tokNumber:
		return parseNumber(t)
	case t.kind == tokString:
		return value.NewString(t.text), nil
	case t.kind == tokOp && t.text == "-":
		n := p.next()
		if n.kind != tokNumber {
			return value.Null, p.errorf(n, "expected a number after '-', found %s", n)
		}
		v, err := parseNumber(n)
		if err != nil {
			return value.Null, err
		}
		if v.Kind() == value.KindInt {
			return value.NewInt(-v.Int()), nil
		}
		return value.NewFloat(-v.Float()), nil
	case t.kind == tokIdent && strings.EqualFold(t.text, "true"):
		return value.NewBool(true), nil
	case t.kind == tokIdent && strings.EqualFold(t.text, "false"):
		return value.NewBool(false), nil
	case t.kind == tokIdent && strings.EqualFold(t.text, "null"):
		return value.Null, nil
	default:
		return value.Null, p.errorf(t, "expected a constant value, found %s", t)
	}
}

func parseNumber(t token) (value.Value, error) {
	if strings.Contains(t.text, ".") {
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return value.Null, &SyntaxError{Line: t.line, Col: t.col, Msg: "malformed number " + t.text}
		}
		return value.NewFloat(f), nil
	}
	i, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return value.Null, &SyntaxError{Line: t.line, Col: t.col, Msg: "malformed number " + t.text}
	}
	return value.NewInt(i), nil
}

func attrIndex(t token) (int, error) {
	n, err := strconv.Atoi(t.text)
	if err != nil || n < 1 {
		return 0, &SyntaxError{Line: t.line, Col: t.col, Msg: "attribute numbers are 1-based positive integers"}
	}
	return n - 1, nil
}

// ---------------------------------------------------------------------------
// Predicates and scalar expressions
// ---------------------------------------------------------------------------

// parsePredicate parses a boolean condition with `or` as the lowest-binding
// connective, then `and`, then `not`, then comparisons.
func (p *parser) parsePredicate() (scalar.Predicate, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokIdent && strings.EqualFold(t.text, "or") {
			p.next()
			right, err := p.parseAnd()
			if err != nil {
				return nil, err
			}
			left = scalar.Or{Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseAnd() (scalar.Predicate, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokIdent && strings.EqualFold(t.text, "and") {
			p.next()
			right, err := p.parseNot()
			if err != nil {
				return nil, err
			}
			left = scalar.And{Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseNot() (scalar.Predicate, error) {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, "not") {
		p.next()
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return scalar.Not{Operand: inner}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (scalar.Predicate, error) {
	t := p.peek()
	// Parenthesised sub-condition or boolean constants.
	if t.kind == tokPunct && t.text == "(" {
		// Could be a parenthesised predicate; try it with backtracking so that
		// parenthesised scalar expressions like (%1 + %2) > 3 also work.
		save := p.idx
		p.next()
		inner, err := p.parsePredicate()
		if err == nil && p.peekIsPunct(")") {
			p.next()
			// Only accept if the next token is not a comparison/arith operator
			// (otherwise the parentheses belonged to a scalar expression).
			nt := p.peek()
			if nt.kind != tokOp {
				return inner, nil
			}
		}
		p.idx = save
	}
	if t.kind == tokIdent && strings.EqualFold(t.text, "true") {
		p.next()
		return scalar.True{}, nil
	}
	if t.kind == tokIdent && strings.EqualFold(t.text, "false") {
		p.next()
		return scalar.False{}, nil
	}
	left, err := p.parseScalar()
	if err != nil {
		return nil, err
	}
	opTok := p.next()
	if opTok.kind != tokOp {
		return nil, p.errorf(opTok, "expected a comparison operator, found %s", opTok)
	}
	op, err := value.ParseCompareOp(opTok.text)
	if err != nil {
		return nil, p.errorf(opTok, "%v", err)
	}
	right, err := p.parseScalar()
	if err != nil {
		return nil, err
	}
	return scalar.Compare{Op: op, Left: left, Right: right}, nil
}

// parseScalar parses an arithmetic expression with the usual precedence:
// additive < multiplicative < unary.
func (p *parser) parseScalar() (scalar.Expr, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokOp && (t.text == "+" || t.text == "-" || t.text == "||") {
			p.next()
			right, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			op, _ := value.ParseBinaryOp(t.text)
			left = scalar.Arith{Op: op, Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseTerm() (scalar.Expr, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokOp && (t.text == "*" || t.text == "/" || t.text == "%") {
			p.next()
			right, err := p.parseFactor()
			if err != nil {
				return nil, err
			}
			op, _ := value.ParseBinaryOp(t.text)
			left = scalar.Arith{Op: op, Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseFactor() (scalar.Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokAttr:
		p.next()
		idx, err := attrIndex(t)
		if err != nil {
			return nil, err
		}
		return scalar.NewAttr(idx), nil
	case t.kind == tokNumber, t.kind == tokString:
		v, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		return scalar.NewConst(v), nil
	case t.kind == tokIdent && (strings.EqualFold(t.text, "true") || strings.EqualFold(t.text, "false") || strings.EqualFold(t.text, "null")):
		v, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		return scalar.NewConst(v), nil
	case t.kind == tokOp && t.text == "-":
		p.next()
		inner, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return scalar.Neg{Operand: inner}, nil
	case t.kind == tokPunct && t.text == "(":
		p.next()
		inner, err := p.parseScalar()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return inner, nil
	default:
		return nil, p.errorf(t, "expected a scalar expression, found %s", t)
	}
}
