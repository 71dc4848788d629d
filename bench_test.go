package mra

// This file holds the paper's experiments E1–E10 as testing.B benchmarks, one
// group per experiment.  The paper has no measured tables of its own (it is a
// formal paper); each benchmark quantifies one of its theorems, worked
// examples or explicit practical claims.  A benchmark that times two forms of
// one query first evaluates both and fails unless they return the same bag,
// so the law it times is also checked on the data it times.  `go test -run
// '^$' -bench . -benchmem` at the repository root regenerates every series;
// README.md reports their within-run ratios.

import (
	"fmt"
	"testing"

	"mra/internal/algebra"
	"mra/internal/eval"
	"mra/internal/multiset"
	"mra/internal/oracle"
	"mra/internal/plan"
	"mra/internal/rewrite"
	"mra/internal/scalar"
	"mra/internal/stmt"
	"mra/internal/storage"
	"mra/internal/txn"
	"mra/internal/value"
	"mra/internal/workload"
	"mra/internal/xraparse"
)

// physical plans e over src at the given gang width and executes the plan:
// the evaluate stage of a transaction, minus the transaction.
func physical(e algebra.Expr, src eval.Source, workers int) (*multiset.Relation, error) {
	p, err := (&plan.Planner{Cards: src, Workers: workers}).Plan(e, eval.CatalogOf(src))
	if err != nil {
		return nil, err
	}
	return p.Execute(src)
}

// runTx runs p in a fresh transaction of mgr and commits it; on an error
// the transaction aborts.
func runTx(mgr *txn.Manager, p stmt.Program) error {
	tx := mgr.Begin()
	if err := tx.Run(p); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// mustEval evaluates with the physical engine, failing the benchmark on error.
func mustEval(b *testing.B, e algebra.Expr, src eval.Source) *multiset.Relation {
	b.Helper()
	r, err := physical(e, src, 1)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// mustAgree evaluates every form of one query once, before anything is
// timed, fails the benchmark unless each returns the bag the first does, and
// returns that bag.
func mustAgree(b *testing.B, src eval.Source, forms ...algebra.Expr) *multiset.Relation {
	b.Helper()
	want := mustEval(b, forms[0], src)
	for _, e := range forms[1:] {
		if !mustEval(b, e, src).Equal(want) {
			b.Fatalf("%s and %s return different bags", forms[0], e)
		}
	}
	return want
}

// mustMatchOracle evaluates e with the physical engine and with the oracle,
// fails the benchmark unless both return the same bag, and returns it.
func mustMatchOracle(b *testing.B, e algebra.Expr, src eval.Source) oracle.Bag {
	b.Helper()
	ref, err := oracle.Eval(e, src)
	if err != nil {
		b.Fatal(err)
	}
	if err := ref.Check(mustEval(b, e, src)); err != nil {
		b.Fatalf("%s: %v", e, err)
	}
	return ref
}

// ---------------------------------------------------------------------------
// E1 — Theorem 3.1: native operators vs their derived forms.
// ---------------------------------------------------------------------------

func benchmarkE1Pair(b *testing.B, n int, native, derived algebra.Expr, src eval.Source) {
	mustAgree(b, src, native, derived)
	b.Run(fmt.Sprintf("native/n=%d", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustEval(b, native, src)
		}
	})
	b.Run(fmt.Sprintf("derived/n=%d", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustEval(b, derived, src)
		}
	})
}

func BenchmarkE1_IntersectNativeVsDerived(b *testing.B) {
	for _, n := range []int{500, 2000} {
		left := workload.Duplicated(workload.DuplicationConfig{DistinctTuples: n, DuplicationFactor: 2, Seed: 1})
		right := workload.Duplicated(workload.DuplicationConfig{DistinctTuples: n, DuplicationFactor: 3, Seed: 2})
		src := eval.MapSource{"a": left, "b": right}
		a, c := algebra.NewRel("a"), algebra.NewRel("b")
		benchmarkE1Pair(b, n,
			algebra.NewIntersect(a, c),
			algebra.NewDifference(a, algebra.NewDifference(a, c)), src)
	}
}

func BenchmarkE1_JoinNativeVsSigmaProduct(b *testing.B) {
	for _, n := range []int{500, 2000} {
		fact, dim := workload.JoinPair(workload.JoinConfig{LeftTuples: n, RightTuples: n / 10, Seed: 3})
		src := eval.MapSource{"fact": fact, "dim": dim}
		cond := scalar.Eq(0, 2)
		benchmarkE1Pair(b, n,
			algebra.NewJoin(cond, algebra.NewRel("fact"), algebra.NewRel("dim")),
			algebra.NewSelect(cond, algebra.NewProduct(algebra.NewRel("fact"), algebra.NewRel("dim"))), src)
	}
}

// ---------------------------------------------------------------------------
// E2 — Theorem 3.2: distribution of σ and π over ⊎.
// ---------------------------------------------------------------------------

func BenchmarkE2_SelectionPushdownOverUnion(b *testing.B) {
	r1 := workload.Duplicated(workload.DuplicationConfig{DistinctTuples: 5000, DuplicationFactor: 2, Seed: 4})
	r2 := workload.Duplicated(workload.DuplicationConfig{DistinctTuples: 5000, DuplicationFactor: 2, Seed: 5})
	src := eval.MapSource{"e1": r1, "e2": r2}
	pred := scalar.NewCompare(value.CmpLt, scalar.NewAttr(1), scalar.NewConst(value.NewInt(1<<15)))
	e1, e2 := algebra.NewRel("e1"), algebra.NewRel("e2")
	whole := algebra.NewSelect(pred, algebra.NewUnion(e1, e2))
	pushed := algebra.NewUnion(algebra.NewSelect(pred, e1), algebra.NewSelect(pred, e2))
	mustAgree(b, src, whole, pushed)
	b.Run("sigma-over-union", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustEval(b, whole, src)
		}
	})
	b.Run("union-of-sigmas", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustEval(b, pushed, src)
		}
	})
}

func BenchmarkE2_ProjectionPushdownOverUnion(b *testing.B) {
	r1 := workload.Duplicated(workload.DuplicationConfig{DistinctTuples: 5000, DuplicationFactor: 2, Seed: 6})
	r2 := workload.Duplicated(workload.DuplicationConfig{DistinctTuples: 5000, DuplicationFactor: 2, Seed: 7})
	src := eval.MapSource{"e1": r1, "e2": r2}
	e1, e2 := algebra.NewRel("e1"), algebra.NewRel("e2")
	whole := algebra.NewProject([]int{0}, algebra.NewUnion(e1, e2))
	pushed := algebra.NewUnion(algebra.NewProject([]int{0}, e1), algebra.NewProject([]int{0}, e2))
	mustAgree(b, src, whole, pushed)
	b.Run("pi-over-union", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustEval(b, whole, src)
		}
	})
	b.Run("union-of-pis", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustEval(b, pushed, src)
		}
	})
}

// ---------------------------------------------------------------------------
// E3 — Theorem 3.3: associativity and join-order cost asymmetry.
// ---------------------------------------------------------------------------

func BenchmarkE3_JoinAssociativity(b *testing.B) {
	fact, dim := workload.JoinPair(workload.JoinConfig{LeftTuples: 4000, RightTuples: 200, Seed: 8})
	_, dim2 := workload.JoinPair(workload.JoinConfig{LeftTuples: 10, RightTuples: 200, Seed: 9})
	src := eval.MapSource{"fact": fact, "dim": dim, "dim2": dim2}
	f, d1, d2 := algebra.NewRel("fact"), algebra.NewRel("dim"), algebra.NewRel("dim2")
	leftDeep := algebra.NewJoin(scalar.Eq(2, 4), algebra.NewJoin(scalar.Eq(0, 2), f, d1), d2)
	rightDeep := algebra.NewJoin(scalar.Eq(0, 2), f, algebra.NewJoin(scalar.Eq(0, 2), d1, d2))
	mustAgree(b, src, leftDeep, rightDeep)
	b.Run("left-deep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustEval(b, leftDeep, src)
		}
	})
	b.Run("right-deep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustEval(b, rightDeep, src)
		}
	})
}

// ---------------------------------------------------------------------------
// E4 — Example 3.1: the Dutch-beers query, through the algebra, XRA and SQL.
// ---------------------------------------------------------------------------

func openBeerBench(b *testing.B, breweries int) *DB {
	b.Helper()
	beer, brewery := workload.Beers(workload.BeerConfig{
		Breweries: breweries, BeersPerBrewery: 20, DuplicateNames: true, DiscreteAlcohol: true, Seed: 10})
	db := Open()
	db.MustCreateRelation("beer", Col("name", String), Col("brewery", String), Col("alcperc", Float))
	db.MustCreateRelation("brewery", Col("name", String), Col("city", String), Col("country", String))
	rows := make([][]any, 0, beer.Cardinality())
	for _, t := range beer.Tuples() {
		rows = append(rows, []any{t.At(0).Str(), t.At(1).Str(), t.At(2).Float()})
	}
	if err := db.InsertValues("beer", rows...); err != nil {
		b.Fatal(err)
	}
	rows = rows[:0]
	for _, t := range brewery.Tuples() {
		rows = append(rows, []any{t.At(0).Str(), t.At(1).Str(), t.At(2).Str()})
	}
	if err := db.InsertValues("brewery", rows...); err != nil {
		b.Fatal(err)
	}
	return db
}

func BenchmarkE4_BeerQuery(b *testing.B) {
	const xra = "project[%1](select[%6 = 'netherlands'](join[%2 = %4](beer, brewery)))"
	const sql = `SELECT beer.name FROM beer, brewery
		WHERE beer.brewery = brewery.name AND brewery.country = 'netherlands'`
	for _, breweries := range []int{50, 200} {
		db := openBeerBench(b, breweries)
		b.Run(fmt.Sprintf("xra/breweries=%d", breweries), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.QueryXRA(xra); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sql/breweries=%d", breweries), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.QuerySQL(sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE4_ParseOnly(b *testing.B) {
	const xra = "project[%1](select[%6 = 'netherlands'](join[%2 = %4](beer, brewery)))"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := xraparse.ParseExpression(xra); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E5 — Example 3.2: aggregation with and without projection push-in, under bag
// and set semantics.
// ---------------------------------------------------------------------------

func BenchmarkE5_AggregateProjectionPushIn(b *testing.B) {
	beer, brewery := workload.Beers(workload.BeerConfig{
		Breweries: 200, BeersPerBrewery: 20, DuplicateNames: true, DiscreteAlcohol: true, Seed: 11})
	src := eval.MapSource{"beer": beer, "brewery": brewery}
	join := algebra.NewJoin(scalar.Eq(1, 3), algebra.NewRel("beer"), algebra.NewRel("brewery"))
	direct := algebra.NewGroupBy([]int{5}, algebra.AggAvg, 2, join)
	pushed := algebra.NewGroupBy([]int{1}, algebra.AggAvg, 0, algebra.NewProject([]int{2, 5}, join))
	bag := mustAgree(b, src, direct, pushed)
	// Example 3.2's point: under set semantics the projection collapses beers
	// of equal strength before averaging, so the pushed form changes meaning.
	setPushed := oracle.SetForm(pushed)
	if set := mustMatchOracle(b, setPushed, src); set.Equal(oracle.Of(bag)) {
		b.Fatal("set-semantics push-in must differ from the bag result")
	}
	b.Run("bag-direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustEval(b, direct, src)
		}
	})
	b.Run("bag-pushed-projection", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustEval(b, pushed, src)
		}
	})
	b.Run("set-semantics-pushed-projection", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustEval(b, setPushed, src)
		}
	})
}

// ---------------------------------------------------------------------------
// E6 — Example 4.1: the update statement.
// ---------------------------------------------------------------------------

func BenchmarkE6_UpdateStatement(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		db := storage.NewDatabase()
		if err := db.CreateRelation(workload.AccountsSchema()); err != nil {
			b.Fatal(err)
		}
		if _, err := db.Apply(map[string]*multiset.Relation{"account": workload.Accounts(n, 12)}); err != nil {
			b.Fatal(err)
		}
		mgr := txn.NewManager(db)
		update := stmt.Update{
			Target: "account",
			Selection: algebra.NewSelect(
				scalar.NewCompare(value.CmpLt, scalar.NewAttr(0), scalar.NewConst(value.NewInt(int64(n/2)))),
				algebra.NewRel("account")),
			Items: []scalar.Expr{
				scalar.NewAttr(0), scalar.NewAttr(1),
				scalar.NewArith(value.OpMul, scalar.NewAttr(2), scalar.NewConst(value.NewFloat(1.1))),
			},
		}
		b.Run(fmt.Sprintf("accounts=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := runTx(mgr, stmt.Program{update}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E7 — the duplicate-removal cost motivation of Section 1.
// ---------------------------------------------------------------------------

func BenchmarkE7_DuplicateRemovalCost(b *testing.B) {
	for _, dup := range []int{1, 4, 16, 64} {
		r := workload.Duplicated(workload.DuplicationConfig{DistinctTuples: 2000, DuplicationFactor: dup, Seed: 13})
		src := eval.MapSource{"r": r}
		proj := algebra.NewProject([]int{1}, algebra.NewRel("r"))
		// The set-semantics baseline must compute δ of the bag projection.
		setProj := oracle.SetForm(proj)
		if err := mustMatchOracle(b, setProj, src).Check(mustEval(b, algebra.NewUnique(proj), src)); err != nil {
			b.Fatalf("set projection differs from δ of the bag projection: %v", err)
		}
		b.Run(fmt.Sprintf("bag-projection/dup=%d", dup), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustEval(b, proj, src)
			}
		})
		b.Run(fmt.Sprintf("set-projection/dup=%d", dup), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustEval(b, setProj, src)
			}
		})
		b.Run(fmt.Sprintf("explicit-delta/dup=%d", dup), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustEval(b, algebra.NewUnique(proj), src)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E8 — transactions: commit/abort throughput with atomicity.
// ---------------------------------------------------------------------------

func BenchmarkE8_TransactionThroughput(b *testing.B) {
	db := storage.NewDatabase()
	if err := db.CreateRelation(workload.AccountsSchema()); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Apply(map[string]*multiset.Relation{"account": workload.Accounts(500, 14)}); err != nil {
		b.Fatal(err)
	}
	mgr := txn.NewManager(db)
	items := []scalar.Expr{
		scalar.NewAttr(0), scalar.NewAttr(1),
		scalar.NewArith(value.OpAdd, scalar.NewAttr(2), scalar.NewConst(value.NewFloat(1))),
	}
	b.Run("commit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sel := algebra.NewSelect(
				scalar.NewCompare(value.CmpEq, scalar.NewAttr(0), scalar.NewConst(value.NewInt(int64(i%500)))),
				algebra.NewRel("account"))
			if err := runTx(mgr, stmt.Program{stmt.Update{Target: "account", Selection: sel, Items: items}}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("abort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tx := mgr.Begin()
			sel := algebra.NewSelect(
				scalar.NewCompare(value.CmpEq, scalar.NewAttr(0), scalar.NewConst(value.NewInt(int64(i%500)))),
				algebra.NewRel("account"))
			if err := tx.Exec(stmt.Update{Target: "account", Selection: sel, Items: items}); err != nil {
				b.Fatal(err)
			}
			tx.Abort()
		}
	})
	b.Run("read-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := runTx(mgr, stmt.Program{stmt.Query{Source: algebra.NewGroupBy(nil, algebra.AggCount, 0, algebra.NewRel("account"))}}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// E9 — optimizer ablation: the written form vs the law-applied form.  The
// rewriter's law table applies the paper's equivalences (σ over × becomes a
// join, single-relation conjuncts move below it); the planner plans both
// forms, and both must return the oracle's bag.
// ---------------------------------------------------------------------------

func BenchmarkE9_OptimizerAblation(b *testing.B) {
	fact, dim := workload.JoinPair(workload.JoinConfig{LeftTuples: 2000, RightTuples: 100, Seed: 15})
	src := eval.MapSource{"fact": fact, "dim": dim}
	written := algebra.NewSelect(
		scalar.NewAnd(scalar.Eq(0, 2),
			scalar.NewCompare(value.CmpGe, scalar.NewAttr(3), scalar.NewConst(value.NewInt(50)))),
		algebra.NewProduct(algebra.NewRel("fact"), algebra.NewRel("dim")))
	applied, _ := rewrite.NewRewriter().Rewrite(written, eval.CatalogOf(src))
	reference, err := oracle.Eval(written, src)
	if err != nil {
		b.Fatal(err)
	}
	if err := reference.Check(mustAgree(b, src, written, applied)); err != nil {
		b.Fatalf("the physical plans disagree with the oracle: %v", err)
	}
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := oracle.Eval(written, src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("written-form", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustEval(b, written, src)
		}
	})
	b.Run("law-applied-form", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustEval(b, applied, src)
		}
	})
}

// ---------------------------------------------------------------------------
// E10 — the transitive-closure extension of Section 5.
// ---------------------------------------------------------------------------

func BenchmarkE10_TransitiveClosure(b *testing.B) {
	for _, nodes := range []int{32, 128} {
		g := workload.Graph(workload.GraphConfig{Nodes: nodes, OutDegree: 2, Seed: 16})
		src := eval.MapSource{"edge": g}
		tc := algebra.NewTClose(algebra.NewRel("edge"))
		mustMatchOracle(b, tc, src)
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustEval(b, tc, src)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Exec — the partitioned parallel runtime: the E1 join and E2 pushdown shapes
// swept over gang widths.  workers=1 is the serial planner (no exchanges);
// wider gangs insert Partition/Merge exchange operators.  On a single
// hardware thread the wider gangs only measure the exchange overhead; the
// speedup needs real cores.
// ---------------------------------------------------------------------------

func BenchmarkExec_ParallelWorkers(b *testing.B) {
	fact, dim := workload.JoinPair(workload.JoinConfig{LeftTuples: 2000, RightTuples: 200, Seed: 3})
	jsrc := eval.MapSource{"fact": fact, "dim": dim}
	join := algebra.NewJoin(scalar.Eq(0, 2), algebra.NewRel("fact"), algebra.NewRel("dim"))

	ssrc := eval.MapSource{
		"e1": workload.Duplicated(workload.DuplicationConfig{DistinctTuples: 5000, DuplicationFactor: 2, Seed: 4}),
		"e2": workload.Duplicated(workload.DuplicationConfig{DistinctTuples: 5000, DuplicationFactor: 2, Seed: 5}),
	}
	sigma := algebra.NewSelect(
		scalar.NewCompare(value.CmpLt, scalar.NewAttr(1), scalar.NewConst(value.NewInt(1<<15))),
		algebra.NewUnion(algebra.NewRel("e1"), algebra.NewRel("e2")))

	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("join/workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := physical(join, jsrc, w); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sigma-union/workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := physical(sigma, ssrc, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
