package txn

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"mra/internal/algebra"
	"mra/internal/multiset"
	"mra/internal/oracle"
	"mra/internal/scalar"
	"mra/internal/schema"
	"mra/internal/stmt"
	"mra/internal/storage"
	"mra/internal/tuple"
	"mra/internal/value"
)

// The statement property: random programs of insert, delete and update run
// through a transaction, and the committed relation must be the bag
// Definition 4.1 names, evaluated literally by the oracle one statement at a
// time: insert(R, E) is R ⊎ E, delete(R, E) is R ∸ E, and update(R, E, a) is
// (R ∸ E) ⊎ π_a(R ∩ E).

// stmtSchema is the target relation r(s, x, k): a string, a float column
// that also holds ints, and an int.
var stmtSchema = schema.NewRelation("r",
	schema.Attribute{Name: "s", Type: value.KindString},
	schema.Attribute{Name: "x", Type: value.KindFloat},
	schema.Attribute{Name: "k", Type: value.KindInt})

// stmtStrings, stmtNumbers and stmtKeys are the value pools of the three
// columns: nulls everywhere, the empty string, NaN, 1 beside 1.0, 0 beside
// -0.0, and 2^53 ± 1 beside 2^53.0.
func stmtStrings() []value.Value {
	return []value.Value{value.Null, value.NewString(""), value.NewString("a"), value.NewString("b")}
}

func stmtNumbers() []value.Value {
	return []value.Value{
		value.Null, value.NewFloat(math.NaN()),
		value.NewInt(0), value.NewFloat(math.Copysign(0, -1)), value.NewInt(1), value.NewFloat(1), value.NewFloat(0.5),
		value.NewInt(1<<53 - 1), value.NewInt(1 << 53), value.NewInt(1<<53 + 1), value.NewFloat(1 << 53),
	}
}

func stmtKeys() []value.Value {
	return []value.Value{value.Null, value.NewInt(0), value.NewInt(1), value.NewInt(2), value.NewInt(3)}
}

// stmtGen draws the relations and statements of one round.  Each round uses
// a few values of each pool, so equal tuples recur.
type stmtGen struct {
	rng              *rand.Rand
	strs, nums, keys []value.Value
	heavy            bool
	// seen holds every tuple r has held so far in the program.
	seen []tuple.Tuple
}

func newStmtGen(rng *rand.Rand) *stmtGen {
	pick := func(pool []value.Value) []value.Value {
		out := make([]value.Value, 2+rng.Intn(3))
		for i := range out {
			out[i] = pool[rng.Intn(len(pool))]
		}
		return out
	}
	return &stmtGen{rng: rng, strs: pick(stmtStrings()), nums: pick(stmtNumbers()), keys: pick(stmtKeys()),
		heavy: rng.Intn(3) == 0}
}

// row draws a fresh row from the round's pools.
func (g *stmtGen) row() []value.Value {
	return []value.Value{g.strs[g.rng.Intn(len(g.strs))], g.nums[g.rng.Intn(len(g.nums))], g.keys[g.rng.Intn(len(g.keys))]}
}

// multiplicity is small, or in a third of the rounds up to a thousand, so
// the relation's cardinality passes the planner's parallel threshold and the
// selections over it run through partitions and a Merge at workers > 1.
func (g *stmtGen) multiplicity() uint64 {
	if g.heavy {
		return uint64(1 + g.rng.Intn(1000))
	}
	return uint64(1 + g.rng.Intn(4))
}

// relation draws the initial instance of r.
func (g *stmtGen) relation() *multiset.Relation {
	r := multiset.New(stmtSchema)
	for n := 1 + g.rng.Intn(12); n > 0; n-- {
		r.Add(tuple.New(g.row()...), g.multiplicity())
	}
	return r
}

// literal draws a literal E: tuples r has held in this program, each at
// most twice and so often fewer times than r holds it, with an int that is
// exactly a float written as that float and vice versa, and fresh rows from
// the pools.  A tuple r held once and no longer does comes back through it,
// often in its other spelling.
func (g *stmtGen) literal() algebra.Expr {
	var rows [][]value.Value
	for n := g.rng.Intn(6); n > 0; n-- {
		var vals []value.Value
		if len(g.seen) > 0 && g.rng.Intn(2) == 0 {
			vals = g.seen[g.rng.Intn(len(g.seen))].Values()
			for _, c := range []int{1, 2} {
				if g.rng.Intn(2) == 0 {
					vals[c] = otherKind(vals[c])
				}
			}
		} else {
			vals = g.row()
		}
		for k := 1 + g.rng.Intn(2); k > 0; k-- {
			rows = append(rows, vals)
		}
	}
	if len(rows) == 0 {
		rows = append(rows, g.row())
	}
	return algebra.Literal{Rel: schema.Anonymous(stmtSchema.Attributes()...), Rows: rows}
}

// otherKind returns the number v written in the other numeric kind when that
// is exact (2^53 as 2^53.0, 1.0 as 1), and v itself otherwise.
func otherKind(v value.Value) value.Value {
	switch v.Kind() {
	case value.KindInt:
		if f := float64(v.Int()); int64(f) == v.Int() {
			return value.NewFloat(f)
		}
	case value.KindFloat:
		if f := v.Float(); f == math.Trunc(f) && math.Abs(f) < 1<<62 {
			return value.NewInt(int64(f))
		}
	}
	return v
}

// source draws E: a selection over R, R itself, a literal, or the union of a
// selection and a literal, whose tuples then come in both spellings.
func (g *stmtGen) source() algebra.Expr {
	r := algebra.NewRel("r")
	sel := func() algebra.Expr {
		preds := []scalar.Predicate{
			scalar.NewCompare(value.CmpLt, scalar.NewAttr(2), scalar.NewConst(value.NewInt(int64(g.rng.Intn(4))))),
			scalar.NewCompare(value.CmpEq, scalar.NewAttr(0), scalar.NewConst(value.NewString("a"))),
			scalar.NewCompare(value.CmpGe, scalar.NewAttr(1), scalar.NewConst(value.NewInt(1))),
			scalar.NewCompare(value.CmpEq, scalar.NewAttr(1), scalar.NewAttr(1)),
		}
		return algebra.NewSelect(preds[g.rng.Intn(len(preds))], r)
	}
	switch g.rng.Intn(5) {
	case 0, 1:
		return sel()
	case 2:
		return r
	case 3:
		return g.literal()
	default:
		return algebra.NewUnion(sel(), g.literal())
	}
}

// items draws an update list a.  Collapsing lists map many tuples onto one,
// often onto a tuple the same update removes.  x + 1 tells the spellings
// apart (2^53 + 1 against 2^53.0 + 1 = 2^53.0), so the items must read R's
// tuple, and a revived tuple must be the one re-added.  One list overflows
// int64 for k ≥ 2, so item errors are drawn too.
func (g *stmtGen) items() []scalar.Expr {
	s, x, k := scalar.NewAttr(0), scalar.NewAttr(1), scalar.NewAttr(2)
	num := func(i int64) scalar.Expr { return scalar.NewConst(value.NewInt(i)) }
	lists := [][]scalar.Expr{
		{s, x, k},
		{s, num(0), k},
		{s, x, num(0)},
		{scalar.NewConst(value.NewString("z")), num(0), num(0)},
		{scalar.NewArith(value.OpConcat, s, scalar.NewConst(value.NewString("x"))),
			scalar.NewArith(value.OpMul, x, num(2)), scalar.NewArith(value.OpAdd, k, num(1))},
		{s, scalar.NewArith(value.OpSub, x, num(1)), scalar.NewArith(value.OpSub, k, num(1))},
		{s, x, scalar.NewArith(value.OpMul, k, num(1<<62))},
		{s, scalar.NewArith(value.OpAdd, x, num(1)), k},
	}
	return lists[g.rng.Intn(len(lists))]
}

// statement draws one statement over the current state cur and returns it
// with the expression the oracle evaluates for the new state of r.
func (g *stmtGen) statement(cur *multiset.Relation) (stmt.Statement, algebra.Expr) {
	cur.EachSorted(func(t tuple.Tuple, _ uint64) bool {
		g.seen = append(g.seen, t)
		return true
	})
	r, e := algebra.NewRel("r"), g.source()
	switch g.rng.Intn(3) {
	case 0:
		return stmt.Insert{Target: "r", Source: e}, algebra.NewUnion(r, e)
	case 1:
		return stmt.Delete{Target: "r", Source: e}, algebra.NewDifference(r, e)
	default:
		a := g.items()
		return stmt.Update{Target: "r", Selection: e, Items: a},
			algebra.NewUnion(algebra.NewDifference(r, e), algebra.NewExtProject(a, nil, algebra.NewIntersect(r, e)))
	}
}

// oracleSource serves the oracle's current state of r.
type oracleSource struct{ r *multiset.Relation }

func (o oracleSource) Relation(name string) (*multiset.Relation, bool) {
	if name != "r" {
		return nil, false
	}
	return o.r, true
}

// TestPropertyStatementsMatchDefinition41 runs random programs of insert,
// delete and update through a transaction at workers 1, 2, 4 and 8 and
// commits them.  The committed r must equal the oracle's literal
// definitions applied in order, and a program the oracle fails on must fail
// too and leave the database as it was.
func TestPropertyStatementsMatchDefinition41(t *testing.T) {
	rng := rand.New(rand.NewSource(4141))
	var programs, failed, updates int
	for round := 0; round < 600; round++ {
		g := newStmtGen(rng)
		init := g.relation()
		var prog stmt.Program
		want, wantErr := oracle.Of(init), error(nil)
		for n := 1 + rng.Intn(8); n > 0; n-- {
			cur := want.Relation()
			s, def := g.statement(cur)
			prog = append(prog, s)
			if _, ok := s.(stmt.Update); ok {
				updates++
			}
			if want, wantErr = oracle.Eval(def, oracleSource{cur}); wantErr != nil {
				break
			}
		}
		programs++
		if wantErr != nil {
			failed++
		}
		for _, w := range matrixWorkers {
			db := storage.NewDatabase()
			if err := db.CreateRelation(stmtSchema); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Apply(map[string]*multiset.Relation{"r": init}); err != nil {
				t.Fatal(err)
			}
			tx := NewManager(db).BeginTx(TxOptions{Workers: w})
			err := tx.Run(prog)
			if err == nil {
				err = tx.Commit()
			} else {
				tx.Abort()
			}
			got, _ := db.Relation("r")
			switch {
			case wantErr != nil && err == nil:
				t.Fatalf("round %d, workers=%d: program succeeded where the oracle fails with %v:\n%s", round, w, wantErr, prog)
			case wantErr != nil && (!errors.Is(err, value.ErrOverflow) || !errors.Is(wantErr, value.ErrOverflow)):
				t.Fatalf("round %d, workers=%d: program failed with %v, the oracle with %v:\n%s", round, w, err, wantErr, prog)
			case wantErr != nil && !got.Equal(init):
				t.Fatalf("round %d, workers=%d: failed program changed r to %s:\n%s", round, w, got, prog)
			case wantErr == nil && err != nil:
				t.Fatalf("round %d, workers=%d: %v\n%s", round, w, err, prog)
			case wantErr == nil:
				if err := want.Check(got); err != nil {
					t.Fatalf("round %d, workers=%d: r = %s\nfrom %s\nafter\n%s%v", round, w, got, init, prog, err)
				}
			}
		}
	}
	t.Logf("%d programs (%d failing), %d updates", programs, failed, updates)
	if failed == 0 || failed > programs/2 {
		t.Errorf("%d of %d programs fail; the draw must cover both outcomes", failed, programs)
	}
}
