package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/metrics"
	"strings"

	"mra"
	"mra/internal/algebra"
	"mra/internal/eval"
	"mra/internal/multiset"
	"mra/internal/plan"
	"mra/internal/rewrite"
	"mra/internal/server"
	"mra/internal/sqlfront"
	"mra/internal/stmt"
	"mra/internal/txn"
	"mra/internal/xraparse"
)

// The staged pipeline runs an op the way the engine does, but from outside:
// it calls each layer's public function in the order server.session →
// mra.Tx.ExecSQLScript → txn.Tx.Run → Commit (served) or DB.QuerySQL/QueryXRA
// (olap) call them, with a span around every call.  Nothing in the engine is
// instrumented; the only seam used is stmt.Context, the interface a
// statement executes against, which lets a decorator stand between the
// statement layer and the transaction.

// counters are the exact counts taken at the span boundaries.
type counters struct {
	RulesApplied       uint64
	IntermediateTuples uint64
	MaterialisedTuples uint64
	ExecuteAllocs      uint64
	DiffBaseRows       uint64
	DiffChangedRows    uint64
}

// stagedCtx decorates the transaction a statement executes against.  Its
// Evaluate does what txn.Tx.Evaluate does — validate, plan, execute — one
// traced call at a time; its Replace remembers each written relation's
// snapshot instance and latest workspace instance so the Diff the commit will
// run can be timed on the very same inputs.
type stagedCtx struct {
	stmt.Context
	src     eval.Source
	tr      *tracer
	cnt     *counters
	qctx    context.Context
	workers int
	base    map[string]*multiset.Relation
	next    map[string]*multiset.Relation
}

func newStagedCtx(qctx context.Context, inner stmt.Context, tr *tracer, cnt *counters, workers int) (*stagedCtx, error) {
	src, ok := inner.(eval.Source)
	if !ok {
		return nil, fmt.Errorf("staged: statement context %T is not an eval.Source", inner)
	}
	return &stagedCtx{Context: inner, src: src, tr: tr, cnt: cnt, qctx: qctx, workers: workers}, nil
}

func (c *stagedCtx) Evaluate(e algebra.Expr) (*multiset.Relation, error) {
	sp := c.tr.begin("algebra.validate")
	err := algebra.Validate(e, c.Context.Catalog())
	c.tr.end(sp)
	if err != nil {
		return nil, err
	}
	return c.planAndExecute(e)
}

// planAndExecute is the inside of eval.Engine.EvalContext with the engine's
// default settings: a planner over the source's cardinalities and statistics,
// then one execution.
func (c *stagedCtx) planAndExecute(e algebra.Expr) (*multiset.Relation, error) {
	sp := c.tr.begin("plan.plan")
	p, err := (&plan.Planner{Cards: eval.Cardinalities(c.src), Workers: c.workers}).Plan(e, eval.CatalogOf(c.src))
	c.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = c.tr.begin("plan.execute")
	var st plan.Stats
	before := heapAllocs()
	rel, err := p.ExecuteStatsContext(c.qctx, c.src, &st)
	c.cnt.ExecuteAllocs += heapAllocs() - before
	c.tr.end(sp)
	c.cnt.IntermediateTuples += st.IntermediateTuples
	c.cnt.MaterialisedTuples += st.MaterialisedTuples
	return rel, err
}

func (c *stagedCtx) Replace(name string, r *multiset.Relation) error {
	key := strings.ToLower(name)
	if _, seen := c.base[key]; !seen {
		if cur, ok := c.Context.Current(name); ok {
			if c.base == nil {
				c.base = map[string]*multiset.Relation{}
				c.next = map[string]*multiset.Relation{}
			}
			c.base[key] = cur
		}
	}
	if c.base != nil {
		c.next[key] = r
	}
	return c.Context.Replace(name, r)
}

// probeDiff times multiset.Diff(snapshot, workspace) for every relation the
// transaction wrote, as a probe span.
func (c *stagedCtx) probeDiff() {
	if len(c.base) == 0 {
		return
	}
	sp := c.tr.beginProbe("multiset.diff")
	for key, base := range c.base {
		add, remove := multiset.Diff(base, c.next[key])
		c.cnt.DiffBaseRows += base.Cardinality()
		c.cnt.DiffChangedRows += add.Cardinality() + remove.Cardinality()
	}
	c.tr.end(sp)
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// heapAllocs reads the process-wide count of heap objects allocated so far.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// tracedStmt wraps a compiled statement so that txn.Tx.Run, which hands every
// statement the transaction as its context, hands it the decorator instead,
// inside a stmt.apply span.  The span's self time is the statement's own
// multiset work: Execute minus the Evaluate calls it makes.
type tracedStmt struct {
	stmt.Statement
	s *stagedSession
}

func (t tracedStmt) Execute(stmt.Context) error {
	sp := t.s.tr.begin("stmt.apply")
	defer t.s.tr.end(sp)
	return t.Statement.Execute(t.s.dec)
}

// captureStmt is a statement that does nothing but report the context it was
// executed against: mra.Tx.Exec(captureStmt) yields the *txn.Tx behind a
// facade transaction, which the facade otherwise keeps to itself.
type captureStmt struct{ got *stmt.Context }

func (c captureStmt) Execute(ctx stmt.Context) error { *c.got = ctx; return nil }
func (c captureStmt) String() string                 { return "capture" }

// beginStaged opens a facade transaction and returns it with the txn.Tx
// inside it.
func beginStaged(db *mra.DB, workers int) (*mra.Tx, *txn.Tx, error) {
	tx := db.BeginTx(mra.TxOptions{Workers: workers})
	var got stmt.Context
	if err := tx.Exec(captureStmt{&got}); err != nil {
		tx.Abort()
		return nil, nil, err
	}
	inner, ok := got.(*txn.Tx)
	if !ok {
		tx.Abort()
		return nil, nil, fmt.Errorf("staged: facade transaction runs on %T, want *txn.Tx", got)
	}
	return tx, inner, nil
}

// stagedSession replays served ops without a socket: line is what
// server.session.dispatch does for the command words and statement lines the
// workloads send.
type stagedSession struct {
	db   *mra.DB
	tr   *tracer
	cnt  *counters
	qctx context.Context

	// The open transaction: the facade handle, the txn.Tx inside it, and the
	// decorator its statements execute against.
	tx    *mra.Tx
	inner *txn.Tx
	dec   *stagedCtx
}

func newStagedSession(qctx context.Context, db *mra.DB, tr *tracer, cnt *counters) *stagedSession {
	return &stagedSession{db: db, tr: tr, cnt: cnt, qctx: qctx}
}

// runOp executes one served op — bracketed by begin/commit when it has
// several lines — and returns the response to every line.
func (s *stagedSession) runOp(o op) ([]server.Response, error) {
	root := s.tr.beginOp(o.Kind)
	defer s.tr.end(root)
	lines := o.Lines
	if len(lines) > 1 {
		lines = append(append([]string{"begin"}, lines...), "commit")
	}
	out := make([]server.Response, 0, len(lines))
	for _, l := range lines {
		resp := s.line(l)
		out = append(out, resp)
		if !resp.OK {
			// A failed statement or commit has already closed the transaction.
			return out, errors.New(resp.Error)
		}
	}
	return out, nil
}

func (s *stagedSession) line(line string) server.Response {
	sp := s.tr.begin("server.session")
	defer s.tr.end(sp)
	trimmed := strings.TrimSpace(line)
	keyword := strings.ToLower(strings.TrimRight(trimmed, "; \t"))
	var resp server.Response
	switch keyword {
	case "begin":
		resp = s.done(s.open())
	case "commit":
		resp = s.done(s.commitOpen())
	default:
		resp = s.statements(trimmed)
	}
	enc := s.tr.begin("server.encode")
	_, err := json.Marshal(resp)
	s.tr.end(enc)
	if err != nil {
		return server.Response{Error: err.Error()}
	}
	return resp
}

func (s *stagedSession) state() server.SessionState {
	if s.tx != nil {
		return server.StateTxn
	}
	return server.StateIdle
}

func (s *stagedSession) fail(err error) server.Response {
	return server.Response{State: s.state(), Error: err.Error(), Conflict: errors.Is(err, txn.ErrConflict)}
}

// done answers a transaction-control word.
func (s *stagedSession) done(err error) server.Response {
	if err != nil {
		return s.fail(err)
	}
	return server.Response{OK: true, State: s.state()}
}

// open begins a transaction with the server's default session settings.
func (s *stagedSession) open() error {
	sp := s.tr.begin("txn.begin")
	tx, inner, err := beginStaged(s.db, 0)
	s.tr.end(sp)
	if err != nil {
		return err
	}
	dec, err := newStagedCtx(s.qctx, inner.WithContext(s.qctx), s.tr, s.cnt, 0)
	if err != nil {
		tx.Abort()
		return err
	}
	s.tx, s.inner, s.dec = tx, inner, dec
	return nil
}

// commitOpen probes the Diff, commits and closes the open transaction.
func (s *stagedSession) commitOpen() error {
	s.dec.probeDiff()
	sp := s.tr.begin("txn.commit")
	err := s.inner.Commit()
	s.tr.end(sp)
	s.tx, s.inner, s.dec = nil, nil, nil
	return err
}

// statements runs a statement line inside the open transaction, or as its
// own auto-committed transaction.
func (s *stagedSession) statements(script string) server.Response {
	auto := s.tx == nil
	if auto {
		if err := s.open(); err != nil {
			return s.fail(err)
		}
	}
	results, err := s.execScript(script)
	if err != nil {
		s.tx.Abort()
		s.tx, s.inner, s.dec = nil, nil, nil
		return s.fail(err)
	}
	if auto {
		if err := s.commitOpen(); err != nil {
			return s.fail(err)
		}
	}
	resp := server.Response{OK: true, State: s.state()}
	if len(results) > 0 {
		sp := s.tr.begin("mra.rows")
		resp.Results = make([]server.ResultSet, len(results))
		for i, r := range results {
			rows := r.Rows()
			resp.Results[i] = server.ResultSet{Columns: r.Columns(), Rows: rows, RowCount: len(rows)}
		}
		s.tr.end(sp)
	}
	return resp
}

// execScript is mra.Tx.ExecSQLScript: compile against the transaction's
// catalog, run the program inside the transaction, wrap the new outputs.
func (s *stagedSession) execScript(script string) ([]*mra.Result, error) {
	sp := s.tr.begin("sqlfront.compile")
	prog, _, err := sqlfront.CompileScript(script, s.inner.Catalog())
	s.tr.end(sp)
	if err != nil {
		return nil, err
	}
	traced := make(stmt.Program, len(prog))
	for i, st := range prog {
		traced[i] = tracedStmt{Statement: st, s: s}
	}
	before := len(s.inner.Outputs())
	if err := s.inner.Run(traced); err != nil {
		return nil, err
	}
	return s.tx.Outputs()[before:], nil
}

// stagedOLAP replays library queries: what DB.QuerySQL / DB.QueryXRA do, one
// traced call at a time.
type stagedOLAP struct {
	db       *mra.DB
	tr       *tracer
	cnt      *counters
	qctx     context.Context
	workers  int
	rewriter *rewrite.Rewriter
}

func newStagedOLAP(qctx context.Context, db *mra.DB, tr *tracer, cnt *counters, workers int) *stagedOLAP {
	return &stagedOLAP{db: db, tr: tr, cnt: cnt, qctx: qctx, workers: workers, rewriter: rewrite.NewRewriter()}
}

func (s *stagedOLAP) runOp(o op) ([][]any, error) {
	root := s.tr.beginOp(o.Kind)
	defer s.tr.end(root)
	cat := s.db.Catalog()

	var e algebra.Expr
	if o.XRA {
		sp := s.tr.begin("xraparse.parse")
		parsed, err := xraparse.ParseExpression(o.Lines[0])
		s.tr.end(sp)
		if err != nil {
			return nil, err
		}
		e = parsed
	} else {
		sp := s.tr.begin("sqlfront.compile")
		q, err := sqlfront.CompileQuery(o.Lines[0], cat)
		s.tr.end(sp)
		if err != nil {
			return nil, err
		}
		if q.Mods.Active() {
			return nil, fmt.Errorf("staged: %s carries ORDER BY/LIMIT, which the staged replay does not model", o.Kind)
		}
		e = q.Expr
	}

	sp := s.tr.begin("algebra.validate")
	err := algebra.Validate(e, cat)
	s.tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = s.tr.begin("rewrite.rewrite")
	e, applied := s.rewriter.Rewrite(e, cat)
	s.tr.end(sp)
	s.cnt.RulesApplied += uint64(len(applied))

	sp = s.tr.begin("txn.begin")
	tx, inner, err := beginStaged(s.db, s.workers)
	s.tr.end(sp)
	if err != nil {
		return nil, err
	}
	defer tx.Abort()
	dec, err := newStagedCtx(s.qctx, inner, s.tr, s.cnt, s.workers)
	if err != nil {
		return nil, err
	}
	rel, err := dec.planAndExecute(e)
	if err != nil {
		return nil, err
	}
	// Hand the relation to the transaction as a query output: the facade then
	// returns it as the *mra.Result the caller of QuerySQL would hold.
	inner.Output(rel)
	res := tx.Outputs()[0]

	sp = s.tr.begin("mra.rows")
	rows := res.Rows()
	s.tr.end(sp)
	return rows, nil
}
