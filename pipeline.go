package mra

// The statement pipeline.  Every facade entry that turns text or algebra
// into results runs the same named stages — compile, evaluate
// (txn.Tx.EvaluatePlan), run, wrap — each called from one place
// (TestOneCallSitePerStage holds this; ARCHITECTURE.md draws the path).
// Nothing rewrites an expression between compile and evaluate: the planner
// is the one optimiser, so a query and the same expression inside a
// statement plan identically.
// ORDER BY keys ride on the query into the evaluate stage, whose physical
// Sort operator charges the query's memory budget, and wrap keeps the order.

import (
	"context"

	"mra/internal/algebra"
	"mra/internal/plan"
	"mra/internal/sqlfront"
	"mra/internal/stmt"
	"mra/internal/txn"
	"mra/internal/xraparse"
)

// language selects the front end of the compile stage.
type language uint8

const (
	sqlLang language = iota
	xraLang
)

// form is the shape of source text an entry accepts.
type form uint8

const (
	// queryForm is one query: a SQL SELECT or an XRA expression.
	queryForm form = iota
	// statementForm is exactly one statement.
	statementForm
	// scriptForm is a script: one SQL program, or XRA statements and
	// begin … end blocks that each form their own program.
	scriptForm
)

// compiled is the compile stage's output; the form decides which of expr,
// statement and programs is set.
type compiled struct {
	expr      algebra.Expr
	statement stmt.Statement
	// programs holds one program per transaction bracket.
	programs []stmt.Program
	// bracketed reports an explicit begin … end block in the script.
	bracketed bool
	// mods are the presentation modifiers of the query outputs, in order;
	// only SQL has them.
	mods []sqlfront.Modifiers
}

// compile is the compile stage: the one place source text meets a front end.
// cat resolves the relations a SQL text names; XRA parses without one.
func compile(lang language, f form, src string, cat algebra.Catalog) (compiled, error) {
	var c compiled
	var err error
	switch {
	case lang == sqlLang && f == queryForm:
		var q sqlfront.Query
		q, err = sqlfront.CompileQuery(src, cat)
		c.expr, c.mods = q.Expr, []sqlfront.Modifiers{q.Mods}
	case lang == sqlLang && f == statementForm:
		c.statement, err = sqlfront.CompileStatement(src, cat)
	case lang == sqlLang:
		var p stmt.Program
		p, c.mods, err = sqlfront.CompileScript(src, cat)
		c.programs = []stmt.Program{p}
	case f == queryForm:
		c.expr, err = xraparse.ParseExpression(src)
	case f == statementForm:
		c.statement, err = xraparse.ParseStatement(src)
	default:
		var txs []xraparse.Transaction
		txs, err = xraparse.ParseScript(src)
		for _, t := range txs {
			c.programs = append(c.programs, t.Program)
			c.bracketed = c.bracketed || t.Explicit
		}
	}
	return c, err
}

// queryText compiles a query and runs it through query.
func (db *DB) queryText(ctx context.Context, lang language, src string) (*Result, error) {
	c, err := compile(lang, queryForm, src, db.store)
	if err != nil {
		return nil, err
	}
	return db.query(ctx, c)
}

// query runs a compiled query inside a read-only transaction: evaluate —
// under a Sort when the query has ORDER BY keys — and wrap the one result.
func (db *DB) query(ctx context.Context, c compiled) (*Result, error) {
	tx := db.manager.Begin().WithContext(ctx)
	defer tx.Abort()
	var keys []plan.SortKey
	if len(c.mods) > 0 {
		keys = c.mods[0].Order
	}
	if err := tx.Query(c.expr, keys); err != nil {
		return nil, err
	}
	return wrap(tx, 0, c.mods)[0], nil
}

// execText compiles a script and runs it through exec.
func (db *DB) execText(ctx context.Context, lang language, src string) ([]*Result, error) {
	c, err := compile(lang, scriptForm, src, db.store)
	if err != nil {
		return nil, err
	}
	return db.exec(ctx, c)
}

// exec runs each compiled program as its own transaction and commits it.  A
// failing program aborts its transaction and ends the script; the results of
// the programs committed before it accompany the error.
func (db *DB) exec(ctx context.Context, c compiled) ([]*Result, error) {
	var results []*Result
	for i := range c.programs {
		tx := db.manager.Begin().WithContext(ctx)
		outs, err := run(tx, c.programs[i:i+1], c.mods)
		if err == nil {
			err = tx.Commit()
		} else {
			tx.Abort()
		}
		if err != nil {
			return results, err
		}
		results = append(results, outs...)
	}
	return results, nil
}

// run is the run stage: it executes the programs in order inside tx, stopping
// at the first error, and wraps the query outputs they produced with mods.
// On an error the results produced so far accompany it.
func run(tx *txn.Tx, programs []stmt.Program, mods []sqlfront.Modifiers) ([]*Result, error) {
	before := len(tx.Outputs())
	var err error
	for _, p := range programs {
		if err = tx.Run(p); err != nil {
			break
		}
	}
	return wrap(tx, before, mods), err
}

// wrap is the wrap stage: it turns tx's outputs from index from on into
// Results.  Each keeps the key order its query was evaluated in, and the i-th
// is cut by mods[i] when there is one.
func wrap(tx *txn.Tx, from int, mods []sqlfront.Modifiers) []*Result {
	outs := tx.Outputs()[from:]
	results := make([]*Result, len(outs))
	for i, rel := range outs {
		r := &Result{rel: rel, ordered: tx.OutputOrder(from + i)}
		if i < len(mods) {
			r = r.withModifiers(mods[i])
		}
		results[i] = r
	}
	return results
}
