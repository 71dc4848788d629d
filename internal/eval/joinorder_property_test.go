package eval

import (
	"math/rand"
	"strings"
	"testing"

	"mra/internal/algebra"
	"mra/internal/plan"
	"mra/internal/scalar"
)

// multiJoinSource builds n random two-attribute relations r1..rn with small
// key ranges, so multi-join queries produce matches, duplicates and empty
// intermediate results with useful probability.
func multiJoinSource(rng *rand.Rand, n int) MapSource {
	src := make(MapSource, n)
	for i := 0; i < n; i++ {
		name := string(rune('p' + i))
		src[name] = randomRelationN(rng, name, 2, 2+rng.Intn(14), 3)
	}
	return src
}

// chainJoinExpr builds the left-deep written order of the chain query
// r1 ⋈ r2 ⋈ … ⋈ rn with conditions r_k.b = r_{k+1}.a.  Every relation has
// arity 2, so after joining k relations the combined arity is 2k.
func chainJoinExpr(names []string) algebra.Expr {
	e := algebra.Expr(algebra.NewRel(names[0]))
	for k := 1; k < len(names); k++ {
		e = algebra.NewJoin(scalar.Eq(2*k-1, 2*k), e, algebra.NewRel(names[k]))
	}
	return e
}

// starJoinExpr builds the left-deep written order of the star query joining
// every r_k (k ≥ 2) to r1 on r1.a = r_k.a.
func starJoinExpr(names []string) algebra.Expr {
	e := algebra.Expr(algebra.NewRel(names[0]))
	for k := 1; k < len(names); k++ {
		e = algebra.NewJoin(scalar.Eq(0, 2*k), e, algebra.NewRel(names[k]))
	}
	return e
}

// cycleJoinExpr closes the chain with the edge r_n.b = r1.a, written as a
// selection over the chain join — the shape the enumerator's flattener folds
// into the search as an extra join conjunct.
func cycleJoinExpr(names []string) algebra.Expr {
	n := len(names)
	return algebra.NewSelect(scalar.Eq(2*n-1, 0), chainJoinExpr(names))
}

// TestPropertyJoinOrderMatchesReference is the enumerator's oracle property:
// for random databases and 3–6-relation chain, star and cycle queries, the
// engine — whose planner replaces the written join order with the DP
// enumerator's cost-based order, planning against ANALYZE-grade statistics —
// must produce exactly the oracle's multi-set at every tested
// worker count.
// MorselSize 1 and ParallelThreshold 1 force maximal parallel scheduling onto
// the tiny inputs.  Run with -race to check the parallel runtime.
func TestPropertyJoinOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	workerCounts := []int{1, 2, 4, 8}
	shapes := []struct {
		name  string
		build func([]string) algebra.Expr
	}{
		{"chain", chainJoinExpr},
		{"star", starJoinExpr},
		{"cycle", cycleJoinExpr},
	}
	for round := 0; round < 25; round++ {
		n := 3 + rng.Intn(4)
		src := multiJoinSource(rng, n)
		names := make([]string, n)
		for i := range names {
			names[i] = string(rune('p' + i))
		}
		// Analyzed statistics drive the enumerator's cardinality estimates.
		analyzed := AnalyzeSource(src)
		for _, shape := range shapes {
			e := shape.build(names)
			ref := evalOrFatal(t, e, src)
			for _, workers := range workerCounts {
				eng := &Engine{Planner: plan.Planner{Workers: workers, MorselSize: 1, ParallelThreshold: 1}}
				got, err := eng.Eval(e, analyzed)
				if err != nil {
					t.Fatalf("round %d: %s/%d relations/workers=%d: %v", round, shape.name, n, workers, err)
				}
				if err := ref.Check(got); err != nil {
					t.Fatalf("round %d: %s over %d relations at workers=%d: enumerator changed the bag: %v",
						round, shape.name, n, workers, err)
				}
			}
			// Without statistics the enumerator falls back to flat
			// selectivities; the bag must still be exact.
			got, err := (&Engine{}).Eval(e, src)
			if err != nil {
				t.Fatalf("round %d: %s without stats: %v", round, shape.name, err)
			}
			if err := ref.Check(got); err != nil {
				t.Fatalf("round %d: %s without stats changed the bag: %v",
					round, shape.name, err)
			}
		}
	}
}

// TestJoinOrderPicksSmallSideFirst pins the enumerator's effect on a star
// query written worst-first: dimensions cross-multiplied before the fact
// table.  The cost-based order must start from the selective fact joins, so
// the plan holds no cascade of cross products and its peak intermediate
// result stays below the dimensions' cross product the written order starts
// with.
func TestJoinOrderPicksSmallSideFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	src := MapSource{
		"fact": randomRelationN(rng, "fact", 2, 60, 1),
		"d1":   randomRelationN(rng, "d1", 2, 12, 1),
		"d2":   randomRelationN(rng, "d2", 2, 12, 1),
		"d3":   randomRelationN(rng, "d3", 2, 12, 1),
	}
	// Written order: ((d1 × d2) × d3) ⋈ fact — the three dimension joins
	// carry no condition until fact arrives (its conditions reference each
	// dimension's first column).
	e := algebra.NewJoin(
		scalar.NewAnd(scalar.Eq(0, 6), scalar.NewAnd(scalar.Eq(2, 6), scalar.Eq(4, 6))),
		algebra.NewProduct(algebra.NewProduct(algebra.NewRel("d1"), algebra.NewRel("d2")), algebra.NewRel("d3")),
		algebra.NewRel("fact"))
	ref := evalOrFatal(t, e, src)

	analyzed := AnalyzeSource(src)
	reorder := &Engine{CollectStats: true}
	got, err := reorder.Eval(e, analyzed)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Check(got); err != nil {
		t.Fatalf("enumerator changed the bag: %v", err)
	}
	p, err := reorder.planner(analyzed).Plan(e, CatalogOf(analyzed))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(p.String(), "NestedLoopJoin") > 1 {
		t.Errorf("enumerated plan kept the written cross-product cascade:\n%s", p)
	}
	cross := src["d1"].Cardinality() * src["d2"].Cardinality() * src["d3"].Cardinality()
	if peak := reorder.Stats.PeakRelationTuples; peak >= cross {
		t.Errorf("enumerator peak %d not below the %d-row dimension cross product:\n%s", peak, cross, p)
	}
}
