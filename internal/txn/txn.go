// Package txn implements transactions over the multi-set relational storage
// engine (Definition 4.3 of Grefen & de By, ICDE 1994).
//
// A transaction encloses an extended relational algebra program in transaction
// brackets.  During execution the database passes through intermediate states
// D_t.0 … D_t.n that may contain temporary relations created by assignment
// statements; these states have no semantics beyond the transaction.  The end
// bracket either commits — temporary relations are discarded and D_t.n is
// installed as D_{t+1} — or aborts, in which case D_t is preserved unchanged
// (the atomicity property: T(D) = D_t.n or T(D) = D).
//
// Isolation is multi-version snapshot isolation with key-granular validation:
// Begin captures a copy-on-write snapshot of the database (O(1) per
// relation), every read of the transaction resolves against that snapshot,
// and Commit diffs the transaction's workspace against the snapshot into
// Add/Remove delta multisets (the paper's bag semantics makes a transaction's
// effect on a relation exactly such a pair).  First-committer-wins validation
// then runs per tuple key (hash) against the storage engine's recent-writer
// key log: concurrent writers of the same relation conflict only when their
// deltas actually touch overlapping keys, and deltas that commute — disjoint
// keys, or pure additions of the same key (bag union is commutative) —
// merge-install without aborting.  Readers never block writers or each other.
//
// TxOptions.Serializable extends validation to the keys the transaction
// observed: commit aborts with ErrConflict when any key contained in a
// snapshot instance the transaction read was touched by a concurrent
// committer.  Tuples inserted concurrently under fresh keys are phantoms this
// observed-key validation deliberately admits — it is precision over the keys
// that existed, not full predicate locking.
package txn

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"mra/internal/algebra"
	"mra/internal/eval"
	"mra/internal/multiset"
	"mra/internal/plan"
	"mra/internal/stats"
	"mra/internal/stmt"
	"mra/internal/storage"
)

// Transaction lifecycle errors.
var (
	// ErrDone is returned when a finished (committed or aborted) transaction
	// is used again.
	ErrDone = errors.New("txn: transaction already finished")
	// ErrConflict is returned at commit when another transaction has committed
	// a change to a relation this transaction read or wrote.
	ErrConflict = errors.New("txn: write conflict, transaction aborted")
	// ErrReservedName is returned when a temporary relation would shadow a
	// database relation.
	ErrReservedName = errors.New("txn: name already denotes a database relation")
)

// Manager hands out transactions over one database.  Concurrency control is
// multi-version and optimistic (snapshot isolation): each Begin captures an
// O(1) copy-on-write snapshot of the whole database, so readers never block
// writers or each other and every statement of a transaction sees one
// consistent state; Commit runs first-committer-wins validation of the write
// set against relation versions advanced since the snapshot, and loses with
// ErrConflict when a concurrent committer got there first.
//
// A Manager is safe for concurrent use: sessions Begin, evaluate and Commit
// in parallel, and only the validate-and-install step of a commit briefly
// serialises on the storage engine's lock.
type Manager struct {
	db     *storage.Database
	nextID atomic.Uint64
	// defaultWorkers and defaultMemLimit seed the options of transactions
	// begun without explicit TxOptions; they are atomics so sessions can
	// reconfigure defaults without a lock shared with Begin.
	defaultWorkers  atomic.Int64
	defaultMemLimit atomic.Int64
}

// TxOptions configures one transaction.  The zero value inherits the
// manager's defaults.
type TxOptions struct {
	// Workers is the parallelism degree of the transaction's evaluation
	// engine; at or below zero the manager default applies (and a default at
	// or below 1 means serial evaluation).
	Workers int
	// MemoryLimit is the per-query memory budget in bytes.  Zero inherits the
	// manager default; a negative value disables enforcement for this
	// transaction even when a default budget is set.
	MemoryLimit int64
	// Serializable additionally validates the transaction's observed keys at
	// commit: the transaction aborts with ErrConflict when any key contained
	// in a snapshot instance it read — not just keys it wrote — was touched
	// by a concurrent committer.  Readers of untouched keys never abort, even
	// on hot relations.  Tuples concurrently inserted under fresh keys are
	// phantoms this validation admits.  Off (the default) commits validate
	// the delta write set only, i.e. snapshot isolation, which admits write
	// skew but never lost updates.
	Serializable bool
}

// NewManager returns a transaction manager over the given database.
func NewManager(db *storage.Database) *Manager {
	return &Manager{db: db}
}

// Database returns the underlying storage engine.
func (m *Manager) Database() *storage.Database { return m.db }

// SetWorkers configures the default parallelism degree handed to transactions
// begun afterwards without explicit options; at or below 1 evaluation is
// serial.  Transactions already in flight keep their degree.
func (m *Manager) SetWorkers(n int) { m.defaultWorkers.Store(int64(n)) }

// SetMemoryLimit configures the default per-query memory budget, in bytes,
// handed to transactions begun afterwards without explicit options; zero
// disables enforcement.  Queries whose operator state would exceed the budget
// fail with an error wrapping plan.ErrMemoryBudget.
func (m *Manager) SetMemoryLimit(n int64) { m.defaultMemLimit.Store(n) }

// Begin opens a new transaction on the current database state with the
// manager's default options.
func (m *Manager) Begin() *Tx { return m.BeginTx(TxOptions{}) }

// BeginTx opens a new transaction with per-transaction options, capturing a
// copy-on-write snapshot of the current database state.  The snapshot is the
// transaction's whole world: statements evaluate against it plus the
// transaction's own uncommitted changes, and commits validate against
// versions advanced past it.  BeginTx never blocks behind other
// transactions' evaluation — only behind the microseconds-long storage lock.
func (m *Manager) BeginTx(opts TxOptions) *Tx {
	workers := opts.Workers
	if workers <= 0 {
		workers = int(m.defaultWorkers.Load())
	}
	memLimit := opts.MemoryLimit
	switch {
	case memLimit == 0:
		memLimit = m.defaultMemLimit.Load()
	case memLimit < 0:
		memLimit = 0
	}
	return &Tx{
		mgr:          m,
		id:           m.nextID.Add(1),
		snap:         m.db.Snapshot(),
		serializable: opts.Serializable,
		planner:      plan.Planner{Workers: workers, MemoryLimit: memLimit},
		workspace:    make(map[string]*multiset.Relation),
		temps:        make(map[string]*multiset.Relation),
		reads:        make(map[string]struct{}),
	}
}

// State is a transaction's lifecycle state.
type State uint8

// Transaction lifecycle states.
const (
	// StateActive means the transaction accepts statements.
	StateActive State = iota
	// StateCommitted means the end bracket installed the new database state.
	StateCommitted
	// StateAborted means the transaction's effects were discarded.
	StateAborted
)

// String renders the state.
func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateCommitted:
		return "committed"
	case StateAborted:
		return "aborted"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Tx is a single transaction: an isolated snapshot of the database plus the
// uncommitted changes of the statements executed so far.  A Tx is not safe for
// concurrent use by multiple goroutines; different transactions are — reads
// run entirely against the transaction's own snapshot, so concurrent
// transactions share no mutable state until their commits meet in the storage
// engine.
type Tx struct {
	mgr *Manager
	id  uint64
	// snap is the copy-on-write database snapshot captured at Begin; all
	// reads resolve against it, never against the live database.
	snap         *storage.Snapshot
	serializable bool
	// planner is the configuration every evaluation plans under; Evaluate
	// points its Cards at the transaction.
	planner plan.Planner
	state   State
	// ctx is the transaction's lifecycle context: every evaluation runs under
	// it, so cancelling it (or passing its deadline) aborts running queries
	// with ctx.Err().  nil means Background.
	ctx context.Context

	// workspace holds modified database relations (copy-on-write).
	workspace map[string]*multiset.Relation
	// temps holds temporary relations created by assignment statements.
	temps map[string]*multiset.Relation
	// reads records database relations read or written, for commit validation.
	reads map[string]struct{}
	// localStats holds statistics rebuilt by ANALYZE inside this transaction,
	// shadowing the snapshot's summaries for its own planning.
	localStats map[string]*stats.Table
	// outputs collects query statement results in execution order.
	outputs []*multiset.Relation
	// orders holds, by output index, the presentation order of the outputs
	// of queries with an active clause, as the runs their Sort root emitted;
	// nil until the first one.
	orders map[int][]plan.Run
}

// WithContext sets the transaction's lifecycle context and returns the same
// transaction: subsequent query evaluations poll ctx and fail with ctx.Err()
// once it is cancelled or past its deadline.  The statement layer is
// untouched — the context rides on the transaction, not on every Statement.
func (t *Tx) WithContext(ctx context.Context) *Tx {
	t.ctx = ctx
	return t
}

// Context returns the transaction's lifecycle context, Background when none
// was set.
func (t *Tx) Context() context.Context {
	if t.ctx == nil {
		return context.Background()
	}
	return t.ctx
}

// ID returns the transaction's identifier.
func (t *Tx) ID() uint64 { return t.id }

// State returns the transaction's lifecycle state.
func (t *Tx) State() State { return t.state }

// Outputs returns the results of the query statements executed so far, in
// order.
func (t *Tx) Outputs() []*multiset.Relation {
	out := make([]*multiset.Relation, len(t.outputs))
	copy(out, t.outputs)
	return out
}

// OutputOrder returns the presentation order of the i-th output: the counted
// runs its Sort root emitted when it came from a query with an active
// clause, nil otherwise.
func (t *Tx) OutputOrder(i int) []plan.Run { return t.orders[i] }

// Relation implements eval.Source over the transaction's intermediate state:
// temporaries shadow workspace copies, which shadow the snapshot captured at
// Begin.  Reads never touch the live database, so a long-running reader is
// invisible to concurrent writers.
func (t *Tx) Relation(name string) (*multiset.Relation, bool) {
	key := strings.ToLower(name)
	if r, ok := t.temps[key]; ok {
		return r, true
	}
	if r, ok := t.workspace[key]; ok {
		return r, true
	}
	r, ok := t.snap.Relation(name)
	if ok {
		t.reads[key] = struct{}{}
	}
	return r, ok
}

// TableStats gives the planner, which plans from the transaction as its
// source, the statistics of the snapshot captured at Begin, so queries inside
// the transaction plan against the statistics of the version they read.
// Local analyzes shadow the snapshot; statistics are advisory planner input,
// so workspace modifications merely make them slightly stale until commit.
func (t *Tx) TableStats(name string) (*stats.Table, bool) {
	if t.localStats != nil {
		if st, ok := t.localStats[strings.ToLower(name)]; ok {
			return st, true
		}
	}
	return t.snap.TableStats(name)
}

// AnalyzeRelation implements the optional statement hook behind the ANALYZE
// statement: it rebuilds statistics for the named relation from the
// transaction's own view (temporaries and workspace included) and installs
// them both transaction-locally and — because statistics are advisory
// metadata, not versioned data — into the live database when the relation is
// an unmodified database relation, so later transactions benefit without an
// explicit commit.  The key column storage.Analyze installs with them is
// likewise seen from the next transaction on: this one keeps the instance
// its snapshot holds.
func (t *Tx) AnalyzeRelation(name string) error {
	if name == "" {
		// Bare ANALYZE: every relation visible to this transaction.
		for _, n := range t.snap.Names() {
			if err := t.AnalyzeRelation(n); err != nil {
				return err
			}
		}
		for n := range t.temps {
			if err := t.AnalyzeRelation(n); err != nil {
				return err
			}
		}
		return nil
	}
	key := strings.ToLower(name)
	if _, ok := t.temps[key]; !ok {
		if _, ok := t.workspace[key]; !ok {
			// Unmodified database relation: analyze the live instance so the
			// summary outlives this transaction.
			st, err := t.mgr.db.Analyze(name)
			if err != nil {
				return err
			}
			if t.localStats == nil {
				t.localStats = make(map[string]*stats.Table)
			}
			t.localStats[key] = st
			return nil
		}
	}
	r, ok := t.Relation(name)
	if !ok {
		return fmt.Errorf("txn: analyze: unknown relation %q", name)
	}
	if t.localStats == nil {
		t.localStats = make(map[string]*stats.Table)
	}
	t.localStats[key] = stats.Analyze(r, t.snap.Version())
	return nil
}

// Catalog implements stmt.Context: schemas resolve against the
// transaction's intermediate state, as Relation does.
func (t *Tx) Catalog() algebra.Catalog { return eval.CatalogOf(t) }

// Evaluate implements stmt.Context: it is EvaluatePlan without a clause or
// statistics.
func (t *Tx) Evaluate(e algebra.Expr) (*multiset.Relation, error) {
	ev, err := t.EvaluatePlan(e, plan.Clause{}, nil)
	return ev.Result, err
}

// Evaluation is what one pass of the evaluate stage produced.
type Evaluation struct {
	// Plan is the physical plan; it is set once planning succeeded, even when
	// execution then failed.
	Plan *plan.Plan
	// Runs is the result's presentation order, the counted runs the plan's
	// Sort root emitted; nil when the clause was inactive.
	Runs []plan.Run
	// Result is the result relation.
	Result *multiset.Relation
}

// EvaluatePlan is the evaluate stage of every statement and query, and the
// only place an expression is planned and executed: it validates e against
// the transaction's intermediate state, plans it — rooted at a Sort operator
// that executes the clause when it is active — with the transaction's
// cardinalities and statistics, and executes the plan under the
// transaction's context.  st, when non-nil, accumulates per-operator
// statistics.
func (t *Tx) EvaluatePlan(e algebra.Expr, clause plan.Clause, st *plan.Stats) (Evaluation, error) {
	if t.state != StateActive {
		return Evaluation{}, ErrDone
	}
	cat := t.Catalog()
	if err := algebra.Validate(e, cat); err != nil {
		return Evaluation{}, err
	}
	pl := t.planner
	pl.Cards = t
	p, err := pl.PlanOrdered(e, cat, clause)
	if err != nil {
		return Evaluation{}, err
	}
	rel, runs, err := p.ExecuteRuns(t.Context(), t, st)
	return Evaluation{Plan: p, Runs: runs, Result: rel}, err
}

// Query executes the query statement ?E under a presentation clause: e is
// evaluated under a Sort root that executes the clause, and the windowed
// result becomes the next output, together with its runs (see
// OutputOrder).  stmt.Query calls it for a query with an active clause.
func (t *Tx) Query(e algebra.Expr, clause plan.Clause) error {
	ev, err := t.EvaluatePlan(e, clause, nil)
	if err != nil {
		return err
	}
	if ev.Runs != nil {
		if t.orders == nil {
			t.orders = make(map[int][]plan.Run)
		}
		t.orders[len(t.outputs)] = ev.Runs
	}
	t.Output(ev.Result)
	return nil
}

// Current implements stmt.Context.
func (t *Tx) Current(name string) (*multiset.Relation, bool) { return t.Relation(name) }

// Replace implements stmt.Context: R ← E on a database relation, buffered in
// the transaction's workspace until commit.
func (t *Tx) Replace(name string, r *multiset.Relation) error {
	if t.state != StateActive {
		return ErrDone
	}
	key := strings.ToLower(name)
	if _, isTemp := t.temps[key]; isTemp {
		t.temps[key] = r
		return nil
	}
	cur, ok := t.snap.Relation(name)
	if !ok {
		return fmt.Errorf("%w: %q", storage.ErrNoSuchRelation, name)
	}
	if !cur.Schema().Compatible(r.Schema()) {
		return fmt.Errorf("%w: relation %q expects %s, got %s", storage.ErrSchemaMismatch, name, cur.Schema(), r.Schema())
	}
	t.reads[key] = struct{}{}
	t.workspace[key] = r.WithSchema(cur.Schema())
	return nil
}

// Assign implements stmt.Context: binds a temporary relational variable.  The
// name must not collide with a database relation.
func (t *Tx) Assign(name string, r *multiset.Relation) error {
	if t.state != StateActive {
		return ErrDone
	}
	key := strings.ToLower(name)
	if _, exists := t.snap.Relation(name); exists {
		return fmt.Errorf("%w: %q", ErrReservedName, name)
	}
	t.temps[key] = r.WithSchema(r.Schema().Rename(name))
	return nil
}

// Output implements stmt.Context.
func (t *Tx) Output(r *multiset.Relation) { t.outputs = append(t.outputs, r) }

// Exec runs a single statement inside the transaction.
func (t *Tx) Exec(s stmt.Statement) error {
	if t.state != StateActive {
		return ErrDone
	}
	return s.Execute(t)
}

// Run executes a whole program inside the transaction.
func (t *Tx) Run(p stmt.Program) error {
	if t.state != StateActive {
		return ErrDone
	}
	return p.Execute(t)
}

// Commit ends the transaction: temporary relations are discarded, the
// transaction's effect on every modified database relation is diffed against
// its snapshot into an Add/Remove delta multiset, and the deltas are
// merge-installed atomically as D_{t+1}, advancing the logical time.
// Validation is first-committer-wins per tuple key: Commit aborts with
// ErrConflict only when a concurrent transaction committed a change to a key
// this transaction's delta removes (or, for keys it only adds, a concurrent
// removal of them; also, under TxOptions.Serializable, any key it observed).
// Writers touching disjoint keys of the same relation commit concurrently.
// Validation and installation are one atomic step in the storage engine, so
// of two racing committers of a genuinely conflicting key exactly one wins.
// A transaction whose workspace ends up identical to its snapshot commits as
// read-only: no transition, no logical-time advance.
func (t *Tx) Commit() error {
	if t.state != StateActive {
		return ErrDone
	}
	defer t.snap.Release()
	writes := make(map[string]storage.Delta, len(t.workspace))
	for name, next := range t.workspace {
		base, ok := t.snap.Relation(name)
		if !ok {
			// Replace validated existence against the snapshot, so this cannot
			// happen; keep the delta empty and let storage report the name.
			base = multiset.New(next.Schema())
		}
		add, remove := multiset.Diff(base, next)
		writes[name] = storage.Delta{Add: add, Remove: remove}
	}
	var readSets map[string]*multiset.Relation
	if t.serializable {
		readSets = make(map[string]*multiset.Relation, len(t.reads))
		for name := range t.reads {
			if observed, ok := t.snap.Relation(name); ok {
				readSets[name] = observed
			}
		}
	}
	allEmpty := true
	for _, delta := range writes {
		if !delta.Empty() {
			allEmpty = false
			break
		}
	}
	var err error
	if allEmpty {
		// Read-only (or no-op) transaction: its snapshot was consistent by
		// construction, nothing to install, no transition.  Serializable
		// transactions still re-validate their observed keys.
		if t.serializable {
			err = t.mgr.db.ValidateReads(t.snap.Version(), readSets)
		}
	} else {
		_, err = t.mgr.db.ApplyDeltas(t.snap.Version(), writes, readSets)
	}
	if err != nil {
		t.state = StateAborted
		if errors.Is(err, storage.ErrVersionConflict) {
			return fmt.Errorf("%w: %v", ErrConflict, err)
		}
		return err
	}
	t.state = StateCommitted
	return nil
}

// Abort ends the transaction and discards all of its effects; the database
// state D_t is preserved unchanged.
func (t *Tx) Abort() {
	if t.state != StateActive {
		return
	}
	t.state = StateAborted
	t.snap.Release()
	t.workspace = nil
	t.temps = nil
}
