package txn

import (
	"errors"
	"math"
	"strings"
	"testing"

	"mra/internal/algebra"
	"mra/internal/multiset"
	"mra/internal/scalar"
	"mra/internal/schema"
	"mra/internal/stmt"
	"mra/internal/storage"
	"mra/internal/tuple"
	"mra/internal/value"
)

// newBeerManager builds the paper's beer database inside a storage engine and
// returns a transaction manager over it.
func newBeerManager(t *testing.T) *Manager {
	t.Helper()
	db := storage.NewDatabase()
	beerSchema := schema.NewRelation("beer",
		schema.Attribute{Name: "name", Type: value.KindString},
		schema.Attribute{Name: "brewery", Type: value.KindString},
		schema.Attribute{Name: "alcperc", Type: value.KindFloat},
	)
	brewerySchema := schema.NewRelation("brewery",
		schema.Attribute{Name: "name", Type: value.KindString},
		schema.Attribute{Name: "city", Type: value.KindString},
		schema.Attribute{Name: "country", Type: value.KindString},
	)
	if err := db.CreateRelation(beerSchema); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateRelation(brewerySchema); err != nil {
		t.Fatal(err)
	}
	beer := multiset.New(beerSchema)
	beer.Add(tuple.New(value.NewString("pils"), value.NewString("guineken"), value.NewFloat(5.0)), 1)
	beer.Add(tuple.New(value.NewString("bock"), value.NewString("guineken"), value.NewFloat(6.5)), 1)
	beer.Add(tuple.New(value.NewString("stout"), value.NewString("guinness"), value.NewFloat(4.2)), 1)
	brewery := multiset.New(brewerySchema)
	brewery.Add(tuple.New(value.NewString("guineken"), value.NewString("amsterdam"), value.NewString("netherlands")), 1)
	brewery.Add(tuple.New(value.NewString("guinness"), value.NewString("dublin"), value.NewString("ireland")), 1)
	if _, err := db.Apply(map[string]*multiset.Relation{"beer": beer, "brewery": brewery}); err != nil {
		t.Fatal(err)
	}
	return NewManager(db)
}

func guinekenSelection() algebra.Expr {
	return algebra.NewSelect(
		scalar.NewCompare(value.CmpEq, scalar.NewAttr(1), scalar.NewConst(value.NewString("guineken"))),
		algebra.NewRel("beer"))
}

func TestQueryStatementHasNoEffect(t *testing.T) {
	m := newBeerManager(t)
	before := m.Database().LogicalTime()
	outs, err := run(m, stmt.Program{stmt.Query{Source: algebra.NewRel("beer")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].Cardinality() != 3 {
		t.Errorf("query output = %v", outs)
	}
	if m.Database().LogicalTime() != before {
		t.Error("a read-only transaction must not advance the logical time")
	}
}

func TestInsertDeleteStatements(t *testing.T) {
	m := newBeerManager(t)
	newBeer := algebra.Literal{
		Rel: schema.Anonymous(
			schema.Attribute{Name: "name", Type: value.KindString},
			schema.Attribute{Name: "brewery", Type: value.KindString},
			schema.Attribute{Name: "alcperc", Type: value.KindFloat},
		),
		Rows: [][]value.Value{
			{value.NewString("weizen"), value.NewString("guineken"), value.NewFloat(5.4)},
			{value.NewString("weizen"), value.NewString("guineken"), value.NewFloat(5.4)},
		},
	}
	if _, err := run(m, stmt.Program{stmt.Insert{Target: "beer", Source: newBeer}}); err != nil {
		t.Fatal(err)
	}
	if got := m.Database().Cardinality("beer"); got != 5 {
		t.Errorf("after insert |beer| = %d, want 5 (duplicates preserved)", got)
	}

	// delete(beer, σ_{brewery='guinness'} beer).
	del := stmt.Delete{Target: "beer", Source: algebra.NewSelect(
		scalar.NewCompare(value.CmpEq, scalar.NewAttr(1), scalar.NewConst(value.NewString("guinness"))),
		algebra.NewRel("beer"))}
	if _, err := run(m, stmt.Program{del}); err != nil {
		t.Fatal(err)
	}
	if got := m.Database().Cardinality("beer"); got != 4 {
		t.Errorf("after delete |beer| = %d, want 4", got)
	}
	if m.Database().LogicalTime() != 3 {
		t.Errorf("two committed updates advance time to 3, got %d", m.Database().LogicalTime())
	}
}

func TestExample41Update(t *testing.T) {
	// update(beer, σ_{brewery='guineken'} beer, (name, brewery, alcperc*1.1)).
	m := newBeerManager(t)
	up := stmt.Update{
		Target:    "beer",
		Selection: guinekenSelection(),
		Items: []scalar.Expr{
			scalar.NewAttr(0),
			scalar.NewAttr(1),
			scalar.NewArith(value.OpMul, scalar.NewAttr(2), scalar.NewConst(value.NewFloat(1.1))),
		},
	}
	if _, err := run(m, stmt.Program{up}); err != nil {
		t.Fatal(err)
	}
	beer, _ := m.Database().Relation("beer")
	if beer.Cardinality() != 3 {
		t.Fatalf("update must preserve cardinality, got %d", beer.Cardinality())
	}
	found := 0
	beer.Each(func(tp tuple.Tuple, _ uint64) bool {
		if tp.At(1).Str() == "guineken" {
			alc := tp.At(2).Float()
			if alc > 5.49 && alc < 5.51 {
				found++ // pils 5.0 → 5.5
			}
			if alc > 7.14 && alc < 7.16 {
				found++ // bock 6.5 → 7.15
			}
		} else if tp.At(2).Float() != 4.2 {
			t.Errorf("non-guineken beer must be untouched: %v", tp)
		}
		return true
	})
	if found != 2 {
		t.Errorf("expected both guineken beers updated, found %d", found)
	}
}

func TestUpdateValidation(t *testing.T) {
	m := newBeerManager(t)
	tx := m.Begin()
	// Wrong item count.
	err := tx.Exec(stmt.Update{Target: "beer", Selection: guinekenSelection(),
		Items: []scalar.Expr{scalar.NewAttr(0)}})
	if err == nil {
		t.Error("update with a short item list must fail")
	}
	// Structure violation: string attribute replaced by a float.
	err = tx.Exec(stmt.Update{Target: "beer", Selection: guinekenSelection(),
		Items: []scalar.Expr{scalar.NewConst(value.NewFloat(1)), scalar.NewAttr(1), scalar.NewAttr(2)}})
	if err == nil {
		t.Error("update violating the schema must fail")
	}
	// Untypeable item.
	err = tx.Exec(stmt.Update{Target: "beer", Selection: guinekenSelection(),
		Items: []scalar.Expr{scalar.NewArith(value.OpMul, scalar.NewAttr(0), scalar.NewConst(value.NewInt(2))), scalar.NewAttr(1), scalar.NewAttr(2)}})
	if err == nil {
		t.Error("untypeable update item must fail")
	}
	// Unknown target.
	err = tx.Exec(stmt.Update{Target: "wine", Selection: guinekenSelection(), Items: []scalar.Expr{scalar.NewAttr(0)}})
	if err == nil {
		t.Error("unknown target must fail")
	}
	// Incompatible selection schema.
	err = tx.Exec(stmt.Insert{Target: "beer", Source: algebra.NewRel("brewery")})
	if err == nil {
		t.Error("incompatible insert source must fail")
	}
	tx.Abort()
	if m.Database().LogicalTime() != 1 {
		t.Error("failed statements must not change the database")
	}
}

func TestAssignmentAndTemporaries(t *testing.T) {
	m := newBeerManager(t)
	p := stmt.Program{
		stmt.Assign{Name: "dutch", Source: guinekenSelection()},
		stmt.Query{Source: algebra.NewProject([]int{0}, algebra.NewRel("dutch"))},
	}
	outs, err := run(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].Cardinality() != 2 {
		t.Errorf("temporary-backed query output = %v", outs)
	}
	// Temporaries vanish after the transaction.
	if _, ok := m.Database().Relation("dutch"); ok {
		t.Error("temporary relations must not survive the transaction")
	}
	// Shadowing a database relation is rejected.
	tx := m.Begin()
	if err := tx.Exec(stmt.Assign{Name: "beer", Source: guinekenSelection()}); !errors.Is(err, ErrReservedName) {
		t.Errorf("assignment shadowing a database relation = %v", err)
	}
	tx.Abort()
	// Temporaries can be targets of further statements inside the program.
	p2 := stmt.Program{
		stmt.Assign{Name: "tmp", Source: algebra.NewRel("beer")},
		stmt.Delete{Target: "tmp", Source: guinekenSelection()},
		stmt.Query{Source: algebra.NewRel("tmp")},
	}
	outs2, err := run(m, p2)
	if err != nil {
		t.Fatal(err)
	}
	if outs2[0].Cardinality() != 1 {
		t.Errorf("delete on a temporary = %v", outs2[0])
	}
	if m.Database().Cardinality("beer") != 3 {
		t.Error("statements on temporaries must not touch database relations")
	}
}

func TestAtomicityOnAbort(t *testing.T) {
	m := newBeerManager(t)
	beforeTime := m.Database().LogicalTime()
	beforeBeer, _ := m.Database().Relation("beer")

	// A program whose final statement fails: the transaction aborts and the
	// database must be exactly the pre-transaction state D_t.
	bad := stmt.Program{
		stmt.Delete{Target: "beer", Source: guinekenSelection()},
		stmt.Insert{Target: "beer", Source: algebra.NewRel("nosuch")},
	}
	if _, err := run(m, bad); err == nil {
		t.Fatal("program with a failing statement must error")
	}
	afterBeer, _ := m.Database().Relation("beer")
	if !beforeBeer.Equal(afterBeer) {
		t.Error("atomicity violated: partial effects visible after abort")
	}
	if m.Database().LogicalTime() != beforeTime {
		t.Error("aborted transaction must not advance the logical time")
	}

	// Explicit Abort discards buffered changes.
	tx := m.Begin()
	if err := tx.Exec(stmt.Delete{Target: "beer", Source: algebra.NewRel("beer")}); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if got := m.Database().Cardinality("beer"); got != 3 {
		t.Errorf("aborted delete leaked: |beer| = %d", got)
	}
	if tx.State() != StateAborted {
		t.Errorf("state = %v", tx.State())
	}
	// Finished transactions refuse further work.
	if err := tx.Exec(stmt.Query{Source: algebra.NewRel("beer")}); !errors.Is(err, ErrDone) {
		t.Errorf("exec on finished tx = %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrDone) {
		t.Errorf("commit on finished tx = %v", err)
	}
	if err := tx.Run(stmt.Program{}); !errors.Is(err, ErrDone) {
		t.Errorf("run on finished tx = %v", err)
	}
	if _, err := tx.Evaluate(algebra.NewRel("beer")); !errors.Is(err, ErrDone) {
		t.Errorf("evaluate on finished tx = %v", err)
	}
	if err := tx.Replace("beer", beforeBeer); !errors.Is(err, ErrDone) {
		t.Errorf("replace on finished tx = %v", err)
	}
	if err := tx.Assign("x", beforeBeer); !errors.Is(err, ErrDone) {
		t.Errorf("assign on finished tx = %v", err)
	}
	tx.Abort() // double abort is a no-op
}

func TestIsolationUncommittedChangesInvisible(t *testing.T) {
	m := newBeerManager(t)
	writer := m.Begin()
	if err := writer.Exec(stmt.Delete{Target: "beer", Source: algebra.NewRel("beer")}); err != nil {
		t.Fatal(err)
	}
	// The writer sees its own intermediate state D_t.i ...
	mine, _ := writer.Relation("beer")
	if mine.Cardinality() != 0 {
		t.Error("writer must see its own uncommitted delete")
	}
	// ... but a concurrent reader still sees D_t.
	reader := m.Begin()
	theirs, _ := reader.Relation("beer")
	if theirs.Cardinality() != 3 {
		t.Errorf("reader must see the pre-transaction state, got %d", theirs.Cardinality())
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
	if writer.State() != StateCommitted {
		t.Errorf("writer state = %v", writer.State())
	}
	// New transactions see the committed state D_{t+1}.
	later := m.Begin()
	now, _ := later.Relation("beer")
	if now.Cardinality() != 0 {
		t.Errorf("committed delete must be visible, got %d", now.Cardinality())
	}
	later.Abort()
	reader.Abort()
}

func TestWriteConflictDetection(t *testing.T) {
	m := newBeerManager(t)
	t1 := m.Begin()
	t2 := m.Begin()
	del := stmt.Delete{Target: "beer", Source: guinekenSelection()}
	if err := t1.Exec(del); err != nil {
		t.Fatal(err)
	}
	if err := t2.Exec(del); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); !errors.Is(err, ErrConflict) {
		t.Errorf("second committer must detect the conflict, got %v", err)
	}
	if t2.State() != StateAborted {
		t.Errorf("conflicted transaction state = %v", t2.State())
	}
	if m.Database().Cardinality("beer") != 1 {
		t.Errorf("only the first transaction's effect must be installed, |beer| = %d", m.Database().Cardinality("beer"))
	}
	// Readers of unrelated relations are not disturbed.
	t3 := m.Begin()
	if err := t3.Exec(stmt.Query{Source: algebra.NewRel("brewery")}); err != nil {
		t.Fatal(err)
	}
	if err := t3.Commit(); err != nil {
		t.Errorf("read-only commit after an unrelated write: %v", err)
	}
}

func TestManagerRunOutputsAndState(t *testing.T) {
	m := newBeerManager(t)
	if m.Database() == nil {
		t.Fatal("manager must expose its database")
	}
	tx := m.Begin()
	if tx.ID() == 0 || tx.State() != StateActive {
		t.Errorf("fresh transaction: id=%d state=%v", tx.ID(), tx.State())
	}
	if err := tx.Run(stmt.Program{
		stmt.Query{Source: algebra.NewRel("beer")},
		stmt.Query{Source: algebra.NewRel("brewery")},
	}); err != nil {
		t.Fatal(err)
	}
	outs := tx.Outputs()
	if len(outs) != 2 || outs[0].Cardinality() != 3 || outs[1].Cardinality() != 2 {
		t.Errorf("outputs = %v", outs)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if StateActive.String() != "active" || StateCommitted.String() != "committed" || StateAborted.String() != "aborted" {
		t.Error("state strings")
	}
	if !strings.Contains(State(99).String(), "99") {
		t.Error("unknown state string")
	}
	// Run with a failing program returns the error and leaves no outputs.
	if _, err := run(m, stmt.Program{stmt.Query{Source: algebra.NewRel("nosuch")}}); err == nil {
		t.Error("failing program must error")
	}
}

func TestEvaluateValidatesAgainstIntermediateState(t *testing.T) {
	m := newBeerManager(t)
	tx := m.Begin()
	// An expression over a temporary defined earlier in the program validates.
	if err := tx.Exec(stmt.Assign{Name: "g", Source: guinekenSelection()}); err != nil {
		t.Fatal(err)
	}
	r, err := tx.Evaluate(algebra.NewProject([]int{0}, algebra.NewRel("g")))
	if err != nil || r.Cardinality() != 2 {
		t.Errorf("evaluate over temporary = %v, %v", r, err)
	}
	// Invalid expressions are rejected before execution.
	if _, err := tx.Evaluate(algebra.NewProject([]int{9}, algebra.NewRel("beer"))); err == nil {
		t.Error("invalid expression must be rejected")
	}
	tx.Abort()
}

func TestStatementStrings(t *testing.T) {
	up := stmt.Update{Target: "beer", Selection: guinekenSelection(),
		Items: []scalar.Expr{scalar.NewAttr(0), scalar.NewAttr(1),
			scalar.NewArith(value.OpMul, scalar.NewAttr(2), scalar.NewConst(value.NewFloat(1.1)))}}
	if !strings.Contains(up.String(), "update(beer") || !strings.Contains(up.String(), "* 1.1") {
		t.Errorf("update string = %q", up.String())
	}
	ins := stmt.Insert{Target: "beer", Source: algebra.NewRel("beer")}
	if ins.String() != "insert(beer, beer)" {
		t.Errorf("insert string = %q", ins.String())
	}
	del := stmt.Delete{Target: "beer", Source: algebra.NewRel("beer")}
	if del.String() != "delete(beer, beer)" {
		t.Errorf("delete string = %q", del.String())
	}
	asg := stmt.Assign{Name: "x", Source: algebra.NewRel("beer")}
	if asg.String() != "x = beer" {
		t.Errorf("assign string = %q", asg.String())
	}
	q := stmt.Query{Source: algebra.NewRel("beer")}
	if q.String() != "?beer" {
		t.Errorf("query string = %q", q.String())
	}
	prog := stmt.Program{ins, q}
	if !strings.Contains(prog.String(), "insert(beer, beer);\n?beer;\n") {
		t.Errorf("program string = %q", prog.String())
	}
}

// run executes p in a fresh transaction of m and commits it, returning the
// query outputs; on an error the transaction aborts.
func run(m *Manager, p stmt.Program) ([]*multiset.Relation, error) {
	tx := m.Begin()
	if err := tx.Run(p); err != nil {
		tx.Abort()
		return nil, err
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	return tx.Outputs(), nil
}

// TestCommitKeepsTheSpelling pins that commit installs the tuples the
// transaction's own state holds, spelling included: a tuple deleted and
// re-inserted as an equal value of another kind or bit pattern (2^53 as an
// int and as a float, +0 and −0, two NaN payloads) reads after commit as it
// read inside the transaction, with any count, and the commit advances the
// logical time.
func TestCommitKeepsTheSpelling(t *testing.T) {
	two53 := int64(1) << 53
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	for _, c := range []struct {
		name     string
		from, to value.Value
		n, m     int // multiplicities before and after
	}{
		{"int to float", value.NewInt(two53), value.NewFloat(float64(two53)), 1, 1},
		{"float to int", value.NewFloat(float64(two53)), value.NewInt(two53), 1, 1},
		{"count down", value.NewInt(two53), value.NewFloat(float64(two53)), 3, 2},
		{"count up", value.NewFloat(float64(two53)), value.NewInt(two53), 2, 4},
		{"+0 to -0", value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)), 2, 2},
		{"nan payloads", value.NewFloat(nan1), value.NewFloat(nan2), 1, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			rs := schema.NewRelation("r", schema.Attribute{Name: "x", Type: value.KindFloat})
			db := storage.NewDatabase()
			if err := db.CreateRelation(rs); err != nil {
				t.Fatal(err)
			}
			init := multiset.New(rs)
			init.Add(tuple.New(c.from), uint64(c.n))
			if _, err := db.Apply(map[string]*multiset.Relation{"r": init}); err != nil {
				t.Fatal(err)
			}
			m := NewManager(db)
			rows := make([][]value.Value, c.m)
			for i := range rows {
				rows[i] = []value.Value{c.to}
			}
			lit := algebra.Literal{Rel: schema.Anonymous(schema.Attribute{Name: "x", Type: value.KindFloat}), Rows: rows}
			before := db.LogicalTime()
			tx := m.Begin()
			if err := tx.Run(stmt.Program{
				stmt.Delete{Target: "r", Source: algebra.NewRel("r")},
				stmt.Insert{Target: "r", Source: lit},
			}); err != nil {
				t.Fatal(err)
			}
			inside, _ := tx.Relation("r")
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			after, _ := db.Relation("r")
			for name, r := range map[string]*multiset.Relation{"inside": inside, "committed": after} {
				got, n := r.Lookup(tuple.New(c.to))
				v := got.At(0)
				same := v.Kind() == c.to.Kind() &&
					(v.Kind() != value.KindFloat || math.Float64bits(v.Float()) == math.Float64bits(c.to.Float()))
				if !same || n != uint64(c.m) || r.Cardinality() != uint64(c.m) {
					t.Errorf("%s: r holds %v (%s) ×%d of %d, want %v (%s) ×%d",
						name, v, v.Kind(), n, r.Cardinality(), c.to, c.to.Kind(), c.m)
				}
			}
			if db.LogicalTime() == before {
				t.Error("a respelling commit must advance the logical time")
			}
		})
	}
}
