// Package mra is a multi-set (bag) extended relational algebra engine: a Go
// implementation of "A Multi-Set Extended Relational Algebra — A Formal
// Approach to a Practical Issue" (Grefen & de By, ICDE 1994).
//
// The package offers, on top of an in-memory multi-set storage engine:
//
//   - the full extended relational algebra of the paper (union, difference,
//     product, selection, projection, intersection, join, arithmetic
//     projection, duplicate elimination, group-by with any list of
//     CNT/SUM/AVG/MIN/MAX aggregates computed in one pass, and the
//     transitive-closure extension);
//   - statements, programs and transactions (insert, delete, update,
//     assignment, query; atomic commit/abort with logical time);
//   - an XRA textual front-end (the PRISMA/DB-style algebra language) and a
//     SQL front-end that translates a SQL subset onto the algebra;
//   - a cost-based planner that applies the paper's expression equivalences
//     as physical decisions: selections fold into joins and push below them,
//     and join trees are reordered by estimated cost.
//
// # Quick start
//
//	db := mra.Open()
//	db.MustCreateRelation("beer", mra.Col("name", mra.String), mra.Col("brewery", mra.String), mra.Col("alcperc", mra.Float))
//	db.MustExecXRA(`insert(beer, [('pils', 'heineken', 5.0), ('bock', 'heineken', 6.5)])`)
//	res, err := db.QuerySQL(`SELECT brewery, AVG(alcperc) FROM beer GROUP BY brewery`)
//	fmt.Println(res.Table())
package mra

import (
	"context"
	"errors"
	"fmt"

	"mra/internal/algebra"
	"mra/internal/exec"
	"mra/internal/plan"
	"mra/internal/schema"
	"mra/internal/stmt"
	"mra/internal/storage"
	"mra/internal/txn"
	"mra/internal/value"
)

// Type is the domain of a column.
type Type = value.Kind

// The supported column domains.
const (
	Int    = value.KindInt
	Float  = value.KindFloat
	String = value.KindString
	Bool   = value.KindBool
)

// Column describes one attribute of a relation schema.
type Column struct {
	// Name is the attribute name.
	Name string
	// Type is the attribute domain.
	Type Type
}

// Col is a shorthand Column constructor.
func Col(name string, t Type) Column { return Column{Name: name, Type: t} }

// DB is a multi-set relational database: an in-memory storage engine, a
// transaction manager, and the physical evaluator.  Every query and statement
// is planned as written by the one cost-based planner; nothing rewrites it
// first.
type DB struct {
	store   *storage.Database
	manager *txn.Manager
	// workers is the parallelism degree of the physical engine; see
	// SetWorkers.
	workers int
	// memLimit is the per-query memory budget in bytes; see SetMemoryLimit.
	memLimit int64
}

// Open returns an empty database.
func Open() *DB {
	store := storage.NewDatabase()
	return &DB{
		store:   store,
		manager: txn.NewManager(store),
		workers: 1,
	}
}

// SetWorkers configures the parallel worker count of the physical engine for
// subsequent queries and transactions.  At 1 — the default — plans execute
// serially; above 1 the planner inserts Partition/Merge exchange operators
// around large pipelines, hash joins and grouped aggregates, and the plan
// runs partitioned across that many workers.  A count below 1 auto-detects
// from the machine.  Reconfiguration applies to queries and transactions
// started afterwards.
func (db *DB) SetWorkers(n int) {
	db.workers = exec.Resolve(n)
	db.manager.SetWorkers(db.workers)
}

// Workers returns the configured parallel worker count.
func (db *DB) Workers() int { return db.workers }

// SetMemoryLimit configures the per-query memory budget in bytes for
// subsequent queries and transactions: a query whose operator-internal state
// (hash-join build tables, group tables, sorts) would exceed the budget fails
// with an error wrapping plan.ErrMemoryBudget instead of exhausting the
// process.  Zero — the default — disables enforcement.
func (db *DB) SetMemoryLimit(n int64) {
	if n < 0 {
		n = 0
	}
	db.memLimit = n
	db.manager.SetMemoryLimit(n)
}

// MemoryLimit returns the configured per-query memory budget in bytes (zero
// when unenforced).
func (db *DB) MemoryLimit() int64 { return db.memLimit }

// CreateRelation declares a new empty relation.
func (db *DB) CreateRelation(name string, cols ...Column) error {
	if len(cols) == 0 {
		return errors.New("mra: a relation needs at least one column")
	}
	attrs := make([]schema.Attribute, len(cols))
	for i, c := range cols {
		attrs[i] = schema.Attribute{Name: c.Name, Type: c.Type}
	}
	return db.store.CreateRelation(schema.NewRelation(name, attrs...))
}

// MustCreateRelation is CreateRelation panicking on error; it is intended for
// examples and tests.
func (db *DB) MustCreateRelation(name string, cols ...Column) {
	if err := db.CreateRelation(name, cols...); err != nil {
		panic(err)
	}
}

// DropRelation removes a relation and its contents.
func (db *DB) DropRelation(name string) error { return db.store.DropRelation(name) }

// Relations returns the names of all relations, sorted.
func (db *DB) Relations() []string { return db.store.Names() }

// LogicalTime returns the database's logical time: the number of committed
// updating transactions (Definition 2.6 of the paper).
func (db *DB) LogicalTime() uint64 { return db.store.LogicalTime() }

// Cardinality returns the number of tuples (counting duplicates) in a
// relation.
func (db *DB) Cardinality(name string) uint64 { return db.store.Cardinality(name) }

// Catalog exposes the database schema for expression validation.
func (db *DB) Catalog() algebra.Catalog { return db.store }

// InsertValues adds rows to a relation directly, without going through a
// front-end.  Each row must match the relation's arity; values are Go
// int64/int, float64, string or bool.
func (db *DB) InsertValues(relation string, rows ...[]any) error {
	rel, ok := db.store.RelationSchema(relation)
	if !ok {
		return fmt.Errorf("mra: unknown relation %q", relation)
	}
	converted := make([][]value.Value, len(rows))
	for i, row := range rows {
		if len(row) != rel.Arity() {
			return fmt.Errorf("mra: row %d has %d values, relation %q has %d columns", i+1, len(row), relation, rel.Arity())
		}
		vals := make([]value.Value, len(row))
		for j, v := range row {
			cv, err := convertValue(v)
			if err != nil {
				return fmt.Errorf("mra: row %d column %d: %w", i+1, j+1, err)
			}
			vals[j] = cv
		}
		converted[i] = vals
	}
	lit := algebra.Literal{Rel: rel.Rename(""), Rows: converted}
	prog := stmt.Program{stmt.Insert{Target: relation, Source: lit}}
	_, err := db.exec(context.Background(), compiled{programs: []stmt.Program{prog}})
	return err
}

// convertValue maps a native Go value onto an atomic value.
func convertValue(v any) (value.Value, error) {
	switch x := v.(type) {
	case nil:
		return value.Null, nil
	case int:
		return value.NewInt(int64(x)), nil
	case int64:
		return value.NewInt(x), nil
	case float64:
		return value.NewFloat(x), nil
	case string:
		return value.NewString(x), nil
	case bool:
		return value.NewBool(x), nil
	case value.Value:
		return x, nil
	default:
		return value.Null, fmt.Errorf("unsupported value type %T", v)
	}
}

// QueryExpr validates, plans and evaluates an algebra expression, returning
// its result.
func (db *DB) QueryExpr(e algebra.Expr) (*Result, error) {
	return db.QueryExprContext(context.Background(), e)
}

// QueryExprContext is QueryExpr under a lifecycle context: execution polls ctx
// at amortised checkpoints and fails with ctx.Err() once it is cancelled or
// past its deadline.  A Background context adds no cost over QueryExpr.
func (db *DB) QueryExprContext(ctx context.Context, e algebra.Expr) (*Result, error) {
	return db.query(ctx, compiled{expr: e})
}

// QueryXRA parses an XRA expression and evaluates it.
func (db *DB) QueryXRA(expr string) (*Result, error) {
	return db.QueryXRAContext(context.Background(), expr)
}

// QueryXRAContext is QueryXRA under a lifecycle context (see
// QueryExprContext).
func (db *DB) QueryXRAContext(ctx context.Context, expr string) (*Result, error) {
	return db.queryText(ctx, xraLang, expr)
}

// QuerySQL compiles a SQL SELECT statement onto the algebra and evaluates it.
// ORDER BY, LIMIT and OFFSET — which have no counterpart in the unordered bag
// algebra — are presentation modifiers: an ORDER BY query executes through a
// physical Sort operator rooting the plan (so keys may be arbitrary
// expressions, carried as hidden sort columns when they are not output
// columns), and LIMIT/OFFSET window the ordered occurrences.
func (db *DB) QuerySQL(sql string) (*Result, error) {
	return db.QuerySQLContext(context.Background(), sql)
}

// QuerySQLContext is QuerySQL under a lifecycle context (see
// QueryExprContext).
func (db *DB) QuerySQLContext(ctx context.Context, sql string) (*Result, error) {
	return db.queryText(ctx, sqlLang, sql)
}

// Explain describes how the database would execute an XRA expression: the
// parsed logical expression, and the physical plan the planner compiles from
// it as written, with its operator choices and cardinality estimates.
type Explain struct {
	// Logical is the parsed expression in algebra syntax.
	Logical string
	// Physical is the multi-line rendering of the physical operator tree the
	// planner executed: every operator carries its estimated output
	// cardinality (est=, exact; est~, approximate), its distinct-tuple
	// estimate (ndv=) where the planner knows one differing from the row
	// estimate, and — for non-leaf operators — the number of tuples it
	// actually emitted (act=).  Join nesting shows the order the cost-based
	// enumerator chose, not necessarily the written order.
	Physical string
	// Workers is the parallelism degree the plan was compiled for (1 when
	// serial).
	Workers int
}

// Explain compiles an XRA expression through the physical planner, then
// executes the plan once to annotate every operator with the tuple count it
// actually emitted.  The query's result is discarded; the
// database is left unchanged.
func (db *DB) Explain(expr string) (*Explain, error) {
	c, err := compile(xraLang, queryForm, expr, db.store)
	if err != nil {
		return nil, err
	}
	tx := db.manager.Begin()
	defer tx.Abort()
	var st plan.Stats
	ev, err := tx.EvaluatePlan(c.expr, nil, &st)
	if ev.Plan == nil {
		return nil, err
	}
	// A failed execution still renders the plan, with estimates only.
	rendered := ev.Plan.String()
	if err == nil {
		rendered = ev.Plan.Render(&st)
	}
	return &Explain{
		Logical:  c.expr.String(),
		Physical: rendered,
		Workers:  db.workers,
	}, nil
}

// ColumnStats is the public summary of one column's optimizer statistics.
type ColumnStats struct {
	// Name is the column's attribute name (may be empty).
	Name string
	// NDV is the estimated number of distinct non-null values; zero when the
	// column holds only nulls.
	NDV uint64
	// NullFraction is the fraction of rows with a null in this column.
	NullFraction float64
	// Min and Max render the observed value range; both empty when the
	// column holds only nulls.
	Min, Max string
	// HistogramBuckets is the number of equi-depth histogram buckets kept
	// for the column (zero when the column has too few distinct values for a
	// histogram to add information).
	HistogramBuckets int
}

// RelationStats is the public summary of one relation's optimizer statistics
// — the ANALYZE-built, incrementally maintained input of the planner's cost
// model.
type RelationStats struct {
	// Relation is the relation's name.
	Relation string
	// Rows is the exact row count (with multiplicities) at the summary's
	// version.
	Rows uint64
	// DistinctTuples estimates the number of distinct tuples.
	DistinctTuples uint64
	// Version is the database version the summary describes.
	Version uint64
	// Columns holds the per-column summaries in schema order.
	Columns []ColumnStats
}

// Analyze (re)builds optimizer statistics for the named relation — or for
// every relation when name is empty — from its current instance.  Committed
// write deltas maintain the summaries incrementally from then on; wholesale
// replacements (DDL, Replace) drop them until the next Analyze.
func (db *DB) Analyze(name string) error {
	if name == "" {
		return db.store.AnalyzeAll()
	}
	_, err := db.store.Analyze(name)
	return err
}

// RelationStats returns the current statistics summary of a relation, or
// false when the relation was never analyzed (or its summary was invalidated
// by a wholesale replacement).
func (db *DB) RelationStats(name string) (RelationStats, bool) {
	t, ok := db.store.TableStats(name)
	if !ok {
		return RelationStats{}, false
	}
	s, ok := db.store.RelationSchema(name)
	if !ok {
		return RelationStats{}, false
	}
	out := RelationStats{
		Relation:       s.Name(),
		Rows:           uint64(t.Rows() + 0.5),
		DistinctTuples: uint64(t.DistinctTuples() + 0.5),
		Version:        t.Version(),
		Columns:        make([]ColumnStats, t.Cols()),
	}
	for c := 0; c < t.Cols(); c++ {
		cs := ColumnStats{NullFraction: t.NullFraction(c)}
		if c < s.Arity() {
			cs.Name = s.Attribute(c).Name
		}
		if ndv, ok := t.NDV(c); ok {
			cs.NDV = uint64(ndv + 0.5)
		}
		if min, max, ok := t.Range(c); ok {
			cs.Min, cs.Max = min.String(), max.String()
		}
		if h := t.Histogram(c); h != nil {
			_, _, counts := h.Buckets()
			cs.HistogramBuckets = len(counts)
		}
		out.Columns[c] = cs
	}
	return out, true
}

// ExecProgram runs an extended relational algebra program as one transaction
// and returns the query statement outputs.
func (db *DB) ExecProgram(p stmt.Program) ([]*Result, error) {
	return db.ExecProgramContext(context.Background(), p)
}

// ExecProgramContext is ExecProgram under a lifecycle context: the
// transaction aborts, leaving the database unchanged, as soon as a statement
// fails with ctx.Err().
func (db *DB) ExecProgramContext(ctx context.Context, p stmt.Program) ([]*Result, error) {
	return db.exec(ctx, compiled{programs: []stmt.Program{p}})
}

// ExecXRA parses an XRA script and executes it.  Each `begin ... end` block
// runs as one transaction; bare statements run as single-statement
// transactions.  It returns the outputs of all query statements, in order.
func (db *DB) ExecXRA(script string) ([]*Result, error) {
	return db.ExecXRAContext(context.Background(), script)
}

// ExecXRAContext is ExecXRA under a lifecycle context: a cancelled or expired
// context aborts the running transaction (already committed transactions of
// the script stay committed) and returns ctx.Err().
func (db *DB) ExecXRAContext(ctx context.Context, script string) ([]*Result, error) {
	return db.execText(ctx, xraLang, script)
}

// MustExecXRA is ExecXRA panicking on error; it is intended for examples and
// tests.
func (db *DB) MustExecXRA(script string) []*Result {
	rs, err := db.ExecXRA(script)
	if err != nil {
		panic(err)
	}
	return rs
}

// ExecSQL compiles a SQL script (semicolon-separated statements) into one
// program and runs it as a single transaction.  ORDER BY / LIMIT clauses of
// SELECT statements are applied to the corresponding results.
func (db *DB) ExecSQL(script string) ([]*Result, error) {
	return db.ExecSQLContext(context.Background(), script)
}

// ExecSQLContext is ExecSQL under a lifecycle context (see
// ExecProgramContext).
func (db *DB) ExecSQLContext(ctx context.Context, script string) ([]*Result, error) {
	return db.execText(ctx, sqlLang, script)
}

// Begin opens an explicit transaction with the database's default options.
func (db *DB) Begin() *Tx { return &Tx{inner: db.manager.Begin(), db: db} }

// TxOptions configures one explicit transaction; the zero value inherits the
// database defaults.  Serving-layer sessions use per-transaction options so
// one session's settings never leak into another's.
type TxOptions struct {
	// Workers is the parallelism degree of this transaction's evaluation
	// engine; at or below zero the database default applies.
	Workers int
	// MemoryLimit is the per-query memory budget in bytes: zero inherits the
	// database default, negative disables enforcement for this transaction.
	MemoryLimit int64
	// Serializable extends commit validation from the delta write set to the
	// keys the transaction observed: it aborts with a conflict when any key
	// contained in a relation it read was touched by a concurrent committer,
	// trading write skew for aborts.  Readers of untouched keys never abort;
	// concurrent inserts of fresh keys are phantoms this validation admits.
	Serializable bool
}

// BeginTx opens an explicit transaction with per-transaction options.
func (db *DB) BeginTx(opts TxOptions) *Tx {
	return &Tx{
		inner: db.manager.BeginTx(txn.TxOptions{
			Workers:      opts.Workers,
			MemoryLimit:  opts.MemoryLimit,
			Serializable: opts.Serializable,
		}),
		db: db,
	}
}

// WithContext sets the transaction's lifecycle context and returns the same
// transaction: subsequent query evaluations poll ctx and fail with ctx.Err()
// once it is cancelled or past its deadline.
func (t *Tx) WithContext(ctx context.Context) *Tx {
	t.inner.WithContext(ctx)
	return t
}

// History returns the committed single-step transitions of the database,
// oldest first.  The store retains the most recent 4096 (a contiguous suffix
// ending at the current logical time); LogicalTime counts every commit.
func (db *DB) History() []storage.Transition { return db.store.History() }

// Tx is an explicit transaction handle exposing the statement-level API.
type Tx struct {
	inner *txn.Tx
	db    *DB
}

// ExecXRA parses a single XRA statement and executes it inside the
// transaction.
func (t *Tx) ExecXRA(statement string) error { return t.exec(xraLang, statement) }

// ExecSQL compiles a single SQL statement and executes it inside the
// transaction.
func (t *Tx) ExecSQL(sql string) error { return t.exec(sqlLang, sql) }

// exec compiles one statement against the transaction's intermediate state
// and executes it.
func (t *Tx) exec(lang language, src string) error {
	c, err := compile(lang, statementForm, src, t.inner.Catalog())
	if err != nil {
		return err
	}
	return t.inner.Exec(c.statement)
}

// Exec executes an already-built statement inside the transaction.
func (t *Tx) Exec(s stmt.Statement) error { return t.inner.Exec(s) }

// ExecSQLScript compiles a SQL script (semicolon-separated statements) against
// the transaction's intermediate state and executes it inside the
// transaction, returning the results of the script's query statements with
// their ORDER BY / LIMIT modifiers applied.  On a statement error the results
// produced so far are returned alongside the error; the transaction is left
// active so the caller decides between rollback and recovery.
func (t *Tx) ExecSQLScript(script string) ([]*Result, error) { return t.script(sqlLang, script) }

// ExecXRAScript parses an XRA script and executes its statements inside the
// transaction.  A script holding an explicit `begin ... end` block is
// rejected before anything runs — the bracket is this transaction itself —
// and like ExecSQLScript, partial results accompany a statement error with
// the transaction left active.
func (t *Tx) ExecXRAScript(script string) ([]*Result, error) { return t.script(xraLang, script) }

// script compiles a script against the transaction's intermediate state and
// runs it inside the transaction.
func (t *Tx) script(lang language, src string) ([]*Result, error) {
	c, err := compile(lang, scriptForm, src, t.inner.Catalog())
	if err != nil {
		return nil, err
	}
	if c.bracketed {
		return nil, errors.New("mra: begin/end blocks are not allowed inside an open transaction")
	}
	return run(t.inner, c.programs, c.mods)
}

// Query evaluates an XRA expression against the transaction's intermediate
// state (including its own uncommitted changes and temporaries).
func (t *Tx) Query(expr string) (*Result, error) {
	c, err := compile(xraLang, queryForm, expr, t.inner.Catalog())
	if err != nil {
		return nil, err
	}
	rel, err := t.inner.Evaluate(c.expr)
	if err != nil {
		return nil, err
	}
	return &Result{rel: rel}, nil
}

// Outputs returns the results of the query statements executed so far.
func (t *Tx) Outputs() []*Result { return wrap(t.inner, 0, nil) }

// Active reports whether the transaction still accepts statements (it has
// neither committed nor aborted).
func (t *Tx) Active() bool { return t.inner.State() == txn.StateActive }

// Commit installs the transaction's effects as the next database state.
func (t *Tx) Commit() error { return t.inner.Commit() }

// Abort discards the transaction's effects.
func (t *Tx) Abort() { t.inner.Abort() }
