// Package xraparse implements a textual front-end for the multi-set extended
// relational algebra, in the spirit of XRA, the variant of the algebra used as
// the primary database language of PRISMA/DB (Grefen, Wilschut & Flokstra,
// PRISMA/DB 1.0 User Manual; Section 1 of the paper).
//
// The surface syntax mirrors the linear notation the algebra package renders:
//
//	project[%1](select[%6 = 'netherlands'](join[%2 = %4](beer, brewery)))
//
// Statements follow Definition 4.1:
//
//	insert(beer, [('pils', 'guineken', 5.0)]);
//	update(beer, select[%2 = 'guineken'](beer), (%1, %2, %3 * 1.1));
//	strong = select[%3 >= 6.5](beer);
//	?project[%1](strong);
//
// and `begin ... end` brackets group statements into one transaction.  The
// tokens come from package lex, which the SQL front end shares.
package xraparse

import (
	"strconv"
	"strings"

	"mra/internal/algebra"
	"mra/internal/lex"
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
	p.Accept(";")
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
	prog, err := p.parseProgram(func(t lex.Token) bool { return t.Kind == lex.EOF })
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
		switch t := p.Peek(); {
		case t.Kind == lex.EOF:
			return txs, nil
		case p.Accept(";"):
		case p.AcceptWord("begin"):
			prog, err := p.parseProgram(func(t lex.Token) bool { return t.IsWord("end") })
			if err != nil {
				return nil, err
			}
			if _, err := p.ExpectWord("end"); err != nil {
				return nil, err
			}
			p.Accept(";")
			txs = append(txs, Transaction{Program: prog, Explicit: true})
		default:
			s, err := p.parseStatement()
			if err != nil {
				return nil, err
			}
			p.Accept(";")
			txs = append(txs, Transaction{Program: stmt.Program{s}})
		}
	}
}

// Complete reports whether a shell reading a script line by line may submit
// src.  ends is set when src's last token is ";"; input ending inside a
// string literal does not end, while input with any other lexing error does,
// so submitting it lets the parser report the error.  open is set when src
// opens more XRA `begin` blocks than it closes with `end`, counting only
// whole begin/end identifier tokens.  A SQL shell, which has no blocks,
// reads ends alone.
func Complete(src string) (ends, open bool) {
	c, err := lex.NewCursor("xra", src)
	if err != nil {
		return !lex.Unterminated(err), false
	}
	depth := 0
	for _, t := range c.Toks {
		switch {
		case t.IsWord("begin"):
			depth++
		case t.IsWord("end"):
			depth--
		}
	}
	return len(c.Toks) > 1 && c.Toks[len(c.Toks)-2].Is(";"), depth > 0
}

// parser is a recursive-descent parser over the token stream.
type parser struct{ lex.Cursor }

func newParser(src string) (*parser, error) {
	c, err := lex.NewCursor("xra", src)
	if err != nil {
		return nil, err
	}
	return &parser{c}, nil
}

func (p *parser) expectEOF() error {
	if t := p.Peek(); t.Kind != lex.EOF {
		return p.Errorf(t.Pos, "unexpected %s after end of input", t)
	}
	return nil
}

// name reads the relation name starting at the identifier first: touching
// "." and identifier or number tokens extend it, so a relation created as
// sales.q1 reads back under that name.
func (p *parser) name(first lex.Token) string {
	end := int(first.Off) + len(first.Text)
	for t := p.Peek(); int(t.Off) == end && (t.Kind == lex.Ident || t.Kind == lex.Number || t.Is(".")); t = p.Peek() {
		p.Next()
		end += len(t.Text)
	}
	return p.Src[first.Off:end]
}

// target reads the name of the relation a statement writes or analyzes.
func (p *parser) target() (string, error) {
	t := p.Next()
	if t.Kind != lex.Ident {
		return "", p.Errorf(t.Pos, "expected a relation name, found %s", t)
	}
	return p.name(t), nil
}

// ---------------------------------------------------------------------------
// Statements and programs
// ---------------------------------------------------------------------------

func (p *parser) parseProgram(stop func(lex.Token) bool) (stmt.Program, error) {
	var prog stmt.Program
	for {
		t := p.Peek()
		if stop(t) {
			return prog, nil
		}
		if p.Accept(";") {
			continue
		}
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		prog = append(prog, s)
		if t := p.Peek(); !p.Accept(";") && !stop(t) && t.Kind != lex.EOF {
			return nil, p.Errorf(t.Pos, "expected \";\" between statements, found %s", t)
		}
	}
}

func (p *parser) parseStatement() (stmt.Statement, error) {
	t := p.Peek()
	switch {
	case t.Is("?"):
		p.Next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return stmt.Query{Source: e}, nil

	case t.IsWord("insert"):
		return p.parseInsertDelete(true)
	case t.IsWord("delete"):
		return p.parseInsertDelete(false)
	case t.IsWord("update"):
		return p.parseUpdate()
	case t.IsWord("analyze"):
		return p.parseAnalyze()

	case t.Kind == lex.Ident:
		// Either an assignment "name = expr" or a bare expression used as a
		// query.  Disambiguate on the "=" following a bare name.
		save := p.Idx
		if name := p.name(p.Next()); p.Accept("=") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return stmt.Assign{Name: name, Source: e}, nil
		}
		p.Idx = save
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return stmt.Query{Source: e}, nil

	default:
		return nil, p.Errorf(t.Pos, "expected a statement, found %s", t)
	}
}

func (p *parser) parseInsertDelete(insert bool) (stmt.Statement, error) {
	p.Next() // keyword
	if _, err := p.Expect("("); err != nil {
		return nil, err
	}
	target, err := p.target()
	if err != nil {
		return nil, err
	}
	if _, err := p.Expect(","); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.Expect(")"); err != nil {
		return nil, err
	}
	if insert {
		return stmt.Insert{Target: target, Source: e}, nil
	}
	return stmt.Delete{Target: target, Source: e}, nil
}

// parseAnalyze parses analyze(R), the statistics-rebuild statement, and
// analyze(), which summarises every visible relation (SQL's bare ANALYZE).
func (p *parser) parseAnalyze() (stmt.Statement, error) {
	p.Next() // analyze
	if _, err := p.Expect("("); err != nil {
		return nil, err
	}
	if p.Accept(")") {
		return stmt.Analyze{}, nil
	}
	target, err := p.target()
	if err != nil {
		return nil, err
	}
	if _, err := p.Expect(")"); err != nil {
		return nil, err
	}
	return stmt.Analyze{Target: target}, nil
}

func (p *parser) parseUpdate() (stmt.Statement, error) {
	p.Next() // update
	if _, err := p.Expect("("); err != nil {
		return nil, err
	}
	target, err := p.target()
	if err != nil {
		return nil, err
	}
	if _, err := p.Expect(","); err != nil {
		return nil, err
	}
	sel, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.Expect(","); err != nil {
		return nil, err
	}
	if _, err := p.Expect("("); err != nil {
		return nil, err
	}
	var items []scalar.Expr
	for {
		item, err := p.parseScalar()
		if err != nil {
			return nil, err
		}
		items = append(items, item)
		if !p.Accept(",") {
			break
		}
	}
	if _, err := p.Expect(")"); err != nil {
		return nil, err
	}
	if _, err := p.Expect(")"); err != nil {
		return nil, err
	}
	return stmt.Update{Target: target, Selection: sel, Items: items}, nil
}

// ---------------------------------------------------------------------------
// Relational expressions
// ---------------------------------------------------------------------------

func (p *parser) parseExpr() (algebra.Expr, error) {
	t := p.Peek()
	switch {
	case t.Is("["):
		return p.parseLiteral()
	case t.Is("("):
		p.Next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.Expect(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.Kind == lex.Ident:
		return p.parseOperatorOrRelation()
	default:
		return nil, p.Errorf(t.Pos, "expected a relational expression, found %s", t)
	}
}

func (p *parser) parseOperatorOrRelation() (algebra.Expr, error) {
	name := p.name(p.Next())
	keyword := strings.ToLower(name)
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
		if _, err := p.Expect("["); err != nil {
			return nil, err
		}
		var items []scalar.Expr
		for {
			item, err := p.parseScalar()
			if err != nil {
				return nil, err
			}
			items = append(items, item)
			if !p.Accept(",") {
				break
			}
		}
		if _, err := p.Expect("]"); err != nil {
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
		return algebra.NewRel(name), nil
	}
}

func (p *parser) parseBinaryArgs() (algebra.Expr, algebra.Expr, error) {
	if _, err := p.Expect("("); err != nil {
		return nil, nil, err
	}
	left, err := p.parseExpr()
	if err != nil {
		return nil, nil, err
	}
	if _, err := p.Expect(","); err != nil {
		return nil, nil, err
	}
	right, err := p.parseExpr()
	if err != nil {
		return nil, nil, err
	}
	if _, err := p.Expect(")"); err != nil {
		return nil, nil, err
	}
	return left, right, nil
}

func (p *parser) parseUnaryArg() (algebra.Expr, error) {
	if _, err := p.Expect("("); err != nil {
		return nil, err
	}
	in, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.Expect(")"); err != nil {
		return nil, err
	}
	return in, nil
}

func (p *parser) parseBracketPredicate() (scalar.Predicate, error) {
	if _, err := p.Expect("["); err != nil {
		return nil, err
	}
	cond, err := p.parsePredicate()
	if err != nil {
		return nil, err
	}
	if _, err := p.Expect("]"); err != nil {
		return nil, err
	}
	return cond, nil
}

// parseGroupBy parses groupby[(α), AGG, %p, AGG, %p, ...](E): the grouping
// list followed by one or more aggregate applications computed in one pass.
// The grouping list may be empty: groupby[(), CNT, %1](E).
func (p *parser) parseGroupBy() (algebra.Expr, error) {
	if _, err := p.Expect("["); err != nil {
		return nil, err
	}
	if _, err := p.Expect("("); err != nil {
		return nil, err
	}
	var groupCols []int
	for !p.Peek().Is(")") {
		idx, err := p.attr()
		if err != nil {
			return nil, err
		}
		groupCols = append(groupCols, idx)
		p.Accept(",")
	}
	p.Next() // ')'
	var aggs []algebra.AggSpec
	for {
		if _, err := p.Expect(","); err != nil {
			return nil, err
		}
		aggTok := p.Next()
		if aggTok.Kind != lex.Ident {
			return nil, p.Errorf(aggTok.Pos, "expected an aggregate function, found %s", aggTok)
		}
		agg, err := algebra.ParseAggregate(aggTok.Text)
		if err != nil {
			return nil, p.Errorf(aggTok.Pos, "%v", err)
		}
		if _, err := p.Expect(","); err != nil {
			return nil, err
		}
		aggCol, err := p.attr()
		if err != nil {
			return nil, err
		}
		aggs = append(aggs, algebra.AggSpec{Fn: agg, Col: aggCol})
		if !p.Peek().Is(",") {
			break
		}
	}
	if _, err := p.Expect("]"); err != nil {
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
	open := p.Next() // '['
	var rows [][]value.Value
	for !p.Peek().Is("]") {
		if _, err := p.Expect("("); err != nil {
			return nil, err
		}
		var row []value.Value
		for {
			v, err := p.Literal()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if !p.Accept(",") {
				break
			}
		}
		if _, err := p.Expect(")"); err != nil {
			return nil, err
		}
		rows = append(rows, row)
		p.Accept(",")
	}
	p.Next() // ']'
	if len(rows) == 0 {
		return nil, p.Errorf(open.Pos, "literal relation must contain at least one row")
	}
	attrs := make([]schema.Attribute, len(rows[0]))
	for i, v := range rows[0] {
		attrs[i] = schema.Attribute{Type: v.Kind()}
	}
	return algebra.Literal{Rel: schema.Anonymous(attrs...), Rows: rows}, nil
}

// attr reads an attribute reference %i as its 0-based index.
func (p *parser) attr() (int, error) {
	t := p.Next()
	if t.Kind != lex.Attr {
		return 0, p.Errorf(t.Pos, "expected an attribute %%i, found %s", t)
	}
	n, err := strconv.Atoi(t.Text)
	if err != nil || n < 1 {
		return 0, p.Errorf(t.Pos, "attribute numbers are 1-based positive integers")
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
	for p.AcceptWord("or") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = scalar.Or{Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (scalar.Predicate, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.AcceptWord("and") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = scalar.And{Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (scalar.Predicate, error) {
	if p.AcceptWord("not") {
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return scalar.Not{Operand: inner}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (scalar.Predicate, error) {
	t := p.Peek()
	// Parenthesised sub-condition or boolean constants.
	if t.Is("(") {
		// Could be a parenthesised predicate; try it with backtracking so that
		// parenthesised scalar expressions like (%1 + %2) > 3 also work.
		save := p.Idx
		p.Next()
		inner, err := p.parsePredicate()
		// Only accept if the next token is not a comparison/arith operator
		// (otherwise the parentheses belonged to a scalar expression).
		if err == nil && p.Accept(")") && p.Peek().Kind != lex.Op {
			return inner, nil
		}
		p.Idx = save
	}
	if p.AcceptWord("true") {
		return scalar.True{}, nil
	}
	if p.AcceptWord("false") {
		return scalar.False{}, nil
	}
	left, err := p.parseScalar()
	if err != nil {
		return nil, err
	}
	opTok := p.Next()
	if opTok.Kind != lex.Op {
		return nil, p.Errorf(opTok.Pos, "expected a comparison operator, found %s", opTok)
	}
	op, err := value.ParseCompareOp(opTok.Text)
	if err != nil {
		return nil, p.Errorf(opTok.Pos, "%v", err)
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
		t := p.Peek()
		if t.Kind == lex.Op && (t.Text == "+" || t.Text == "-" || t.Text == "||") {
			p.Next()
			right, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			op, _ := value.ParseBinaryOp(t.Text)
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
		t := p.Peek()
		if t.Kind == lex.Op && (t.Text == "*" || t.Text == "/" || t.Text == "%") {
			p.Next()
			right, err := p.parseFactor()
			if err != nil {
				return nil, err
			}
			op, _ := value.ParseBinaryOp(t.Text)
			left = scalar.Arith{Op: op, Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseFactor() (scalar.Expr, error) {
	t := p.Peek()
	switch {
	case t.Kind == lex.Attr:
		idx, err := p.attr()
		if err != nil {
			return nil, err
		}
		return scalar.NewAttr(idx), nil
	case t.Kind == lex.Number, t.Kind == lex.String, t.IsWord("true"), t.IsWord("false"), t.IsWord("null"),
		t.Is("-") && p.Toks[p.Idx+1].Kind == lex.Number:
		// A negated number literal converts its signed text, so the least
		// int64 is a constant here as in a literal relation.
		v, err := p.Literal()
		if err != nil {
			return nil, err
		}
		return scalar.NewConst(v), nil
	case t.Is("-"):
		p.Next()
		inner, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return scalar.Neg{Operand: inner}, nil
	case t.Is("("):
		p.Next()
		inner, err := p.parseScalar()
		if err != nil {
			return nil, err
		}
		if _, err := p.Expect(")"); err != nil {
			return nil, err
		}
		return inner, nil
	default:
		return nil, p.Errorf(t.Pos, "expected a scalar expression, found %s", t)
	}
}
