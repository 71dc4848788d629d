package mra

// The statement pipeline.  Every facade entry that turns text or algebra
// into results runs the same named stages — compile, evaluate
// (txn.Tx.EvaluatePlan), run, wrap — each called from one place
// (TestOneCallSitePerStage holds this; ARCHITECTURE.md draws the path).
// Nothing rewrites an expression between compile and evaluate: the planner
// is the one optimiser, so a query and the same expression inside a
// statement plan identically.
// A SQL query's ORDER BY / OFFSET / LIMIT clause rides on its query
// statement into the evaluate stage, where one Sort operator at the plan's
// root executes it under the query's memory budget and emits counted runs;
// wrap keeps those runs as the result's order.

import (
	"context"

	"mra/internal/algebra"
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

// compiled is the compile stage's output; the form decides which of query,
// statement and programs is set.
type compiled struct {
	query     stmt.Query
	statement stmt.Statement
	// programs holds one program per transaction bracket.
	programs []stmt.Program
	// bracketed reports an explicit begin … end block in the script.
	bracketed bool
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
		c.query = stmt.Query{Source: q.Expr, Mods: q.Mods}
	case lang == sqlLang && f == statementForm:
		c.statement, err = sqlfront.CompileStatement(src, cat)
	case lang == sqlLang:
		var p stmt.Program
		p, _, err = sqlfront.CompileScript(src, cat)
		c.programs = []stmt.Program{p}
	case f == queryForm:
		c.query.Source, err = xraparse.ParseExpression(src)
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

// query runs a compiled query statement inside a read-only transaction and
// wraps its one result.
func (db *DB) query(ctx context.Context, c compiled) (*Result, error) {
	tx := db.manager.Begin().WithContext(ctx)
	defer tx.Abort()
	if err := tx.Exec(c.query); err != nil {
		return nil, err
	}
	return wrap(tx, 0)[0], nil
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
		outs, err := run(tx, c.programs[i:i+1])
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
// at the first error, and wraps the query outputs they produced.  On an error
// the results produced so far accompany it.
func run(tx *txn.Tx, programs []stmt.Program) ([]*Result, error) {
	before := len(tx.Outputs())
	var err error
	for _, p := range programs {
		if err = tx.Run(p); err != nil {
			break
		}
	}
	return wrap(tx, before), err
}

// wrap is the wrap stage: it turns tx's outputs from index from on into
// Results, each keeping the runs its query's Sort root emitted as its order.
func wrap(tx *txn.Tx, from int) []*Result {
	outs := tx.Outputs()[from:]
	results := make([]*Result, len(outs))
	for i, rel := range outs {
		results[i] = &Result{rel: rel, runs: tx.OutputOrder(from + i)}
	}
	return results
}
