// Package sqlfront implements a front-end for a subset of SQL on top of the
// multi-set extended relational algebra, demonstrating the paper's claim that
// the algebra "can be used as a formal background for other multi-set
// languages like SQL" (Section 1 and Example 3.2 of Grefen & de By,
// ICDE 1994).
//
// Supported statements:
//
//	SELECT [DISTINCT] <items> FROM <tables> [JOIN ... ON ...]
//	       [WHERE <cond>] [GROUP BY <cols> [HAVING <cond>]]
//	INSERT INTO <table> VALUES (...), (...)
//	DELETE FROM <table> [WHERE <cond>]
//	UPDATE <table> SET col = expr, ... [WHERE <cond>]
//
// Queries compile to algebra expressions; DML compiles to extended relational
// algebra statements (package stmt), exactly as the paper pairs its Example
// 3.2 and 4.1 with their SQL equivalents.  The tokens come from package lex,
// which the XRA front end shares; errors are *lex.Error values printed as
// `sql: line:col: message`.
package sqlfront

import (
	"strings"

	"mra/internal/lex"
	"mra/internal/value"
)

// This file defines the SQL abstract syntax tree and the recursive-descent
// parser producing it.  Translation to the multi-set algebra lives in
// translate.go.

// sqlExpr is a scalar or boolean SQL expression.
type sqlExpr interface{ sqlExpr() }

// colRef is a possibly qualified column reference (brewery.name).
type colRef struct {
	qualifier string
	name      string
	at        lex.Pos
}

// litExpr is a constant literal.
type litExpr struct {
	val value.Value
}

// binExpr is an arithmetic expression left op right with op in + - * / %.
type binExpr struct {
	op          string
	left, right sqlExpr
}

// cmpExpr is a comparison left op right with op in = <> < <= > >=.
type cmpExpr struct {
	op          string
	left, right sqlExpr
	at          lex.Pos
}

// logicExpr is AND / OR of two boolean expressions.
type logicExpr struct {
	op          string // "and" | "or"
	left, right sqlExpr
}

// notExpr negates a boolean expression.
type notExpr struct {
	operand sqlExpr
}

// aggExpr is an aggregate call: AVG(alcperc), COUNT(*), ...
type aggExpr struct {
	fn   string
	arg  sqlExpr // nil for COUNT(*)
	star bool
	at   lex.Pos
}

func (colRef) sqlExpr()    {}
func (litExpr) sqlExpr()   {}
func (binExpr) sqlExpr()   {}
func (cmpExpr) sqlExpr()   {}
func (logicExpr) sqlExpr() {}
func (notExpr) sqlExpr()   {}
func (aggExpr) sqlExpr()   {}

// selectItem is one entry of a SELECT list.
type selectItem struct {
	expr  sqlExpr
	alias string
}

// tableRef is a FROM-clause table with an optional alias and an optional join
// condition (for explicit JOIN ... ON syntax; nil for comma-separated tables).
type tableRef struct {
	name  string
	alias string
	on    sqlExpr
	at    lex.Pos
}

// orderItem is one ORDER BY entry: a scalar expression (an output column
// name, or an arbitrary expression over the FROM columns) or a 1-based output
// position, with direction.
type orderItem struct {
	expr sqlExpr
	pos  int // 1-based output position when > 0; expr is used otherwise
	desc bool
	at   lex.Pos // source position for error messages
}

// selectQuery is a parsed SELECT statement.
type selectQuery struct {
	distinct bool
	star     bool
	items    []selectItem
	from     []tableRef
	where    sqlExpr
	groupBy  []colRef
	having   sqlExpr
	orderBy  []orderItem
	limit    uint64
	hasLimit bool
	offset   uint64
}

// insertStmt is a parsed INSERT INTO ... VALUES statement.
type insertStmt struct {
	table string
	rows  [][]value.Value
	at    lex.Pos
}

// deleteStmt is a parsed DELETE FROM statement.
type deleteStmt struct {
	table string
	where sqlExpr
}

// analyzeStmt is a parsed ANALYZE [table] statement; an empty table name
// means every relation.
type analyzeStmt struct {
	table string
}

// updateStmt is a parsed UPDATE ... SET statement.
type updateStmt struct {
	table string
	sets  []setClause
	where sqlExpr
}

// setClause is one col = expr assignment of an UPDATE statement.
type setClause struct {
	column colRef
	expr   sqlExpr
}

// parser is a recursive-descent parser over SQL tokens.
type parser struct{ lex.Cursor }

func newParser(src string) (*parser, error) {
	c, err := lex.NewCursor("sql", src)
	if err != nil {
		return nil, err
	}
	return &parser{c}, nil
}

// errf builds a SQL error at the given position (the zero Pos for none).
func errf(at lex.Pos, format string, args ...any) error {
	return lex.Errorf("sql", at, format, args...)
}

// expectEnd checks that one statement, with an optional ";", is the whole
// input.
func (p *parser) expectEnd() error {
	p.Accept(";")
	if t := p.Peek(); t.Kind != lex.EOF {
		return errf(t.Pos, "unexpected %s after end of statement", t)
	}
	return nil
}

// parseStatement parses any supported SQL statement into its AST.
func (p *parser) parseStatement() (any, error) {
	t := p.Peek()
	switch {
	case t.IsWord("select"):
		return p.parseSelect()
	case t.IsWord("insert"):
		return p.parseInsert()
	case t.IsWord("delete"):
		return p.parseDelete()
	case t.IsWord("update"):
		return p.parseUpdate()
	case t.IsWord("analyze"):
		return p.parseAnalyze()
	default:
		return nil, errf(t.Pos, "expected SELECT, INSERT, DELETE, UPDATE or ANALYZE, found %s", t)
	}
}

func (p *parser) parseAnalyze() (*analyzeStmt, error) {
	p.Next() // ANALYZE
	an := &analyzeStmt{}
	if t := p.Peek(); t.Kind == lex.Ident {
		an.table = p.Next().Text
	}
	return an, nil
}

func (p *parser) parseSelect() (*selectQuery, error) {
	if _, err := p.ExpectWord("SELECT"); err != nil {
		return nil, err
	}
	q := &selectQuery{}
	if p.AcceptWord("distinct") {
		q.distinct = true
	}
	if p.Accept("*") {
		q.star = true
	} else {
		for {
			item, err := p.parseSelectItem()
			if err != nil {
				return nil, err
			}
			q.items = append(q.items, item)
			if !p.Accept(",") {
				break
			}
		}
	}
	if _, err := p.ExpectWord("FROM"); err != nil {
		return nil, err
	}
	for {
		ref, err := p.parseTableRef(false)
		if err != nil {
			return nil, err
		}
		q.from = append(q.from, ref)
		// Explicit joins: [INNER] JOIN table ON cond.
		for p.Peek().IsWord("join") || p.Peek().IsWord("inner") {
			p.AcceptWord("inner")
			if _, err := p.ExpectWord("JOIN"); err != nil {
				return nil, err
			}
			joined, err := p.parseTableRef(true)
			if err != nil {
				return nil, err
			}
			q.from = append(q.from, joined)
		}
		if !p.Accept(",") {
			break
		}
	}
	if p.AcceptWord("where") {
		cond, err := p.parseBool()
		if err != nil {
			return nil, err
		}
		q.where = cond
	}
	if p.AcceptWord("group") {
		if _, err := p.ExpectWord("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			q.groupBy = append(q.groupBy, c)
			if !p.Accept(",") {
				break
			}
		}
		if p.AcceptWord("having") {
			cond, err := p.parseBool()
			if err != nil {
				return nil, err
			}
			q.having = cond
		}
	}
	if p.AcceptWord("order") {
		if _, err := p.ExpectWord("BY"); err != nil {
			return nil, err
		}
		for {
			item, err := p.parseOrderItem()
			if err != nil {
				return nil, err
			}
			q.orderBy = append(q.orderBy, item)
			if !p.Accept(",") {
				break
			}
		}
	}
	hasOffset := false
	for {
		switch {
		case !q.hasLimit && p.AcceptWord("limit"):
			n, err := p.parseCount("LIMIT")
			if err != nil {
				return nil, err
			}
			q.limit, q.hasLimit = n, true
			continue
		case !hasOffset && p.AcceptWord("offset"):
			m, err := p.parseCount("OFFSET")
			if err != nil {
				return nil, err
			}
			q.offset, hasOffset = m, true
			continue
		}
		break
	}
	return q, nil
}

// parseOrderItem parses one ORDER BY entry: `expr [ASC|DESC]` or a 1-based
// SELECT-list position `n [ASC|DESC]`.  An expression key may be an output
// column name or any scalar expression over the FROM columns; the translator
// decides which.
func (p *parser) parseOrderItem() (orderItem, error) {
	t := p.Peek()
	item := orderItem{at: t.Pos}
	if t.Kind == lex.Number {
		p.Next()
		v, err := p.Number(t, false)
		if err != nil {
			return orderItem{}, err
		}
		if v.Kind() != value.KindInt || v.Int() < 1 {
			return orderItem{}, errf(t.Pos, "ORDER BY position must be a positive integer, found %q", t.Text)
		}
		item.pos = int(v.Int())
	} else {
		e, err := p.parseScalar()
		if err != nil {
			return orderItem{}, err
		}
		item.expr = e
	}
	if p.AcceptWord("desc") {
		item.desc = true
	} else {
		p.AcceptWord("asc")
	}
	return item, nil
}

// parseCount parses the non-negative integer operand of LIMIT or OFFSET.
func (p *parser) parseCount(clause string) (uint64, error) {
	t := p.Next()
	if t.Kind != lex.Number {
		return 0, errf(t.Pos, "expected a number after %s, found %s", clause, t)
	}
	v, err := p.Number(t, false)
	if err != nil {
		return 0, err
	}
	if v.Kind() != value.KindInt || v.Int() < 0 {
		return 0, errf(t.Pos, "%s must be a non-negative integer, found %q", clause, t.Text)
	}
	return uint64(v.Int()), nil
}

func (p *parser) parseSelectItem() (selectItem, error) {
	e, err := p.parseScalar()
	if err != nil {
		return selectItem{}, err
	}
	item := selectItem{expr: e}
	if p.AcceptWord("as") {
		t := p.Next()
		if t.Kind != lex.Ident {
			return selectItem{}, errf(t.Pos, "expected an alias after AS, found %s", t)
		}
		item.alias = t.Text
	}
	return item, nil
}

func (p *parser) parseTableRef(requireOn bool) (tableRef, error) {
	t := p.Next()
	if t.Kind != lex.Ident {
		return tableRef{}, errf(t.Pos, "expected a table name, found %s", t)
	}
	ref := tableRef{name: t.Text, alias: t.Text, at: t.Pos}
	// Optional alias: `beer b` or `beer AS b`.
	if p.AcceptWord("as") {
		a := p.Next()
		if a.Kind != lex.Ident {
			return tableRef{}, errf(a.Pos, "expected an alias after AS, found %s", a)
		}
		ref.alias = a.Text
	} else if nxt := p.Peek(); nxt.Kind == lex.Ident &&
		!nxt.IsWord("where") && !nxt.IsWord("group") && !nxt.IsWord("join") &&
		!nxt.IsWord("inner") && !nxt.IsWord("on") && !nxt.IsWord("having") &&
		!nxt.IsWord("order") && !nxt.IsWord("limit") && !nxt.IsWord("offset") {
		ref.alias = p.Next().Text
	}
	if requireOn {
		if _, err := p.ExpectWord("ON"); err != nil {
			return tableRef{}, err
		}
		cond, err := p.parseBool()
		if err != nil {
			return tableRef{}, err
		}
		ref.on = cond
	}
	return ref, nil
}

func (p *parser) parseColRef() (colRef, error) {
	t := p.Next()
	if t.Kind != lex.Ident {
		return colRef{}, errf(t.Pos, "expected a column name, found %s", t)
	}
	ref := colRef{name: t.Text, at: t.Pos}
	if p.Accept(".") {
		n := p.Next()
		if n.Kind != lex.Ident {
			return colRef{}, errf(n.Pos, "expected a column name after %q., found %s", t.Text, n)
		}
		ref.qualifier = t.Text
		ref.name = n.Text
	}
	return ref, nil
}

// parseBool parses OR-separated conjunctions.
func (p *parser) parseBool() (sqlExpr, error) {
	left, err := p.parseBoolAnd()
	if err != nil {
		return nil, err
	}
	for p.AcceptWord("or") {
		right, err := p.parseBoolAnd()
		if err != nil {
			return nil, err
		}
		left = logicExpr{op: "or", left: left, right: right}
	}
	return left, nil
}

func (p *parser) parseBoolAnd() (sqlExpr, error) {
	left, err := p.parseBoolNot()
	if err != nil {
		return nil, err
	}
	for p.AcceptWord("and") {
		right, err := p.parseBoolNot()
		if err != nil {
			return nil, err
		}
		left = logicExpr{op: "and", left: left, right: right}
	}
	return left, nil
}

func (p *parser) parseBoolNot() (sqlExpr, error) {
	if p.AcceptWord("not") {
		inner, err := p.parseBoolNot()
		if err != nil {
			return nil, err
		}
		return notExpr{operand: inner}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (sqlExpr, error) {
	// Parenthesised boolean expression.
	if p.Peek().Kind == lex.Punct && p.Peek().Text == "(" {
		save := p.Idx
		p.Next()
		inner, err := p.parseBool()
		if err == nil {
			if _, isBool := inner.(logicExpr); !isBool {
				if _, isCmp := inner.(cmpExpr); !isCmp {
					if _, isNot := inner.(notExpr); !isNot {
						err = errf(p.Peek().Pos, "not a boolean expression")
					}
				}
			}
		}
		if err == nil && p.Accept(")") {
			return inner, nil
		}
		p.Idx = save
	}
	left, err := p.parseScalar()
	if err != nil {
		return nil, err
	}
	// A standalone boolean literal (WHERE TRUE / WHERE FALSE) is a condition
	// by itself.
	if lit, ok := left.(litExpr); ok && lit.val.Kind() == value.KindBool && p.Peek().Kind != lex.Op {
		return lit, nil
	}
	t := p.Next()
	if t.Kind != lex.Op {
		return nil, errf(t.Pos, "expected a comparison operator, found %s", t)
	}
	switch t.Text {
	case "=", "<>", "!=", "<", "<=", ">", ">=":
	default:
		return nil, errf(t.Pos, "expected a comparison operator, found %q", t.Text)
	}
	right, err := p.parseScalar()
	if err != nil {
		return nil, err
	}
	return cmpExpr{op: t.Text, left: left, right: right, at: t.Pos}, nil
}

// parseScalar parses an additive arithmetic expression.
func (p *parser) parseScalar() (sqlExpr, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		t := p.Peek()
		if t.Is("+") || t.Is("-") {
			p.Next()
			right, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			left = binExpr{op: t.Text, left: left, right: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseTerm() (sqlExpr, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		t := p.Peek()
		switch {
		case t.Is("*"), t.Is("/"), t.Is("%"):
			p.Next()
			right, err := p.parseFactor()
			if err != nil {
				return nil, err
			}
			left = binExpr{op: t.Text, left: left, right: right}
		case t.Kind == lex.Attr:
			// a%2: the lexer reads a percent sign touching a number as one
			// token, which is modulo by that number here.
			p.Next()
			v, err := p.Number(t, false)
			if err != nil {
				return nil, err
			}
			left = binExpr{op: "%", left: left, right: litExpr{val: v}}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseFactor() (sqlExpr, error) {
	t := p.Peek()
	switch {
	case t.Kind == lex.Number, t.Kind == lex.String, t.IsWord("true"), t.IsWord("false"), t.IsWord("null"),
		t.Is("-") && p.Toks[p.Idx+1].Kind == lex.Number:
		// A negated number literal converts its signed text, so the least
		// int64 is a constant here as in a VALUES list.
		v, err := p.Literal()
		if err != nil {
			return nil, err
		}
		return litExpr{val: v}, nil
	case t.Is("-"):
		p.Next()
		inner, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return binExpr{op: "-", left: litExpr{val: value.NewInt(0)}, right: inner}, nil
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
	case t.Kind == lex.Ident:
		// Aggregate call?
		if isAggregateName(t.Text) && p.Toks[p.Idx+1].Is("(") {
			p.Next()
			p.Next() // '('
			agg := aggExpr{fn: strings.ToUpper(t.Text), at: t.Pos}
			if p.Accept("*") {
				agg.star = true
			} else {
				arg, err := p.parseScalar()
				if err != nil {
					return nil, err
				}
				agg.arg = arg
			}
			if _, err := p.Expect(")"); err != nil {
				return nil, err
			}
			return agg, nil
		}
		return p.parseColRef()
	default:
		return nil, errf(t.Pos, "expected a value, column or expression, found %s", t)
	}
}

func isAggregateName(s string) bool {
	switch strings.ToUpper(s) {
	case "COUNT", "CNT", "SUM", "AVG", "MIN", "MAX":
		return true
	default:
		return false
	}
}

func (p *parser) parseInsert() (*insertStmt, error) {
	start := p.Next() // INSERT
	if _, err := p.ExpectWord("INTO"); err != nil {
		return nil, err
	}
	t := p.Next()
	if t.Kind != lex.Ident {
		return nil, errf(t.Pos, "expected a table name, found %s", t)
	}
	if _, err := p.ExpectWord("VALUES"); err != nil {
		return nil, err
	}
	ins := &insertStmt{table: t.Text, at: start.Pos}
	for {
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
		ins.rows = append(ins.rows, row)
		if !p.Accept(",") {
			break
		}
	}
	return ins, nil
}

func (p *parser) parseDelete() (*deleteStmt, error) {
	p.Next() // DELETE
	if _, err := p.ExpectWord("FROM"); err != nil {
		return nil, err
	}
	t := p.Next()
	if t.Kind != lex.Ident {
		return nil, errf(t.Pos, "expected a table name, found %s", t)
	}
	del := &deleteStmt{table: t.Text}
	if p.AcceptWord("where") {
		cond, err := p.parseBool()
		if err != nil {
			return nil, err
		}
		del.where = cond
	}
	return del, nil
}

func (p *parser) parseUpdate() (*updateStmt, error) {
	p.Next() // UPDATE
	t := p.Next()
	if t.Kind != lex.Ident {
		return nil, errf(t.Pos, "expected a table name, found %s", t)
	}
	if _, err := p.ExpectWord("SET"); err != nil {
		return nil, err
	}
	up := &updateStmt{table: t.Text}
	for {
		col, err := p.parseColRef()
		if err != nil {
			return nil, err
		}
		eq := p.Next()
		if eq.Kind != lex.Op || eq.Text != "=" {
			return nil, errf(eq.Pos, "expected '=', found %s", eq)
		}
		expr, err := p.parseScalar()
		if err != nil {
			return nil, err
		}
		up.sets = append(up.sets, setClause{column: col, expr: expr})
		if !p.Accept(",") {
			break
		}
	}
	if p.AcceptWord("where") {
		cond, err := p.parseBool()
		if err != nil {
			return nil, err
		}
		up.where = cond
	}
	return up, nil
}
