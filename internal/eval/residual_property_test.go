package eval

import (
	"math/rand"
	"strings"
	"testing"

	"mra/internal/algebra"
	"mra/internal/multiset"
	"mra/internal/oracle"
	"mra/internal/plan"
	"mra/internal/scalar"
	"mra/internal/schema"
	"mra/internal/tuple"
	"mra/internal/value"
)

// residualRelation builds a random three-attribute relation over small ints,
// their float images (2 and 2.0 are one value), a half and null, so join
// keys collide across kinds and residual comparisons meet nulls.
func residualRelation(rng *rand.Rand, name string, maxTuples int) *multiset.Relation {
	pool := []value.Value{
		value.NewInt(0), value.NewInt(1), value.NewInt(2), value.NewInt(3),
		value.NewFloat(2), value.NewFloat(1.5), value.Null,
	}
	attrs := make([]schema.Attribute, 3)
	for i := range attrs {
		attrs[i] = schema.Attribute{Name: string(rune('a' + i)), Type: value.KindInt}
	}
	r := multiset.New(schema.NewRelation(name, attrs...))
	for i := rng.Intn(maxTuples + 1); i > 0; i-- {
		r.Add(tuple.New(pool[rng.Intn(4)], pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]),
			uint64(1+rng.Intn(3)))
	}
	return r
}

// TestPropertyResidualJoinsMatchReference is the oracle of the hash join's
// residual, which narrows the selection of each columnar output batch: with
// residuals the filter kernels compile (comparisons, one-sided constants)
// and residuals they cannot (disjunction, negation, arithmetic) that fall back
// to row-wise Holds, joins in both build orders, over a projected (columnar)
// probe, under a second join that probes the first's output, and under an
// aggregate must return the oracle's bag — or fail when it
// fails — at workers 1, 2, 4 and 8 and at output batch sizes small enough
// that a probe row's matches straddle batches.
func TestPropertyResidualJoinsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	attr, lit := scalar.NewAttr, func(v int64) scalar.Expr { return scalar.NewConst(value.NewInt(v)) }
	cmp := func(op value.CompareOp, l, r scalar.Expr) scalar.Predicate { return scalar.NewCompare(op, l, r) }
	residuals := []scalar.Predicate{
		// Compilable into comparison kernels.
		cmp(value.CmpLt, attr(1), attr(4)),
		scalar.NewAnd(cmp(value.CmpNe, attr(1), attr(4)), cmp(value.CmpLe, attr(2), attr(5))),
		cmp(value.CmpGe, lit(2), attr(5)),
		// Row-wise Holds fallback.
		scalar.Or{Left: cmp(value.CmpLt, attr(1), attr(4)), Right: cmp(value.CmpEq, attr(2), lit(1))},
		scalar.Not{Operand: cmp(value.CmpEq, attr(2), attr(5))},
		cmp(value.CmpGt, scalar.NewArith(value.OpAdd, attr(1), attr(4)), lit(3)),
	}
	l, r := algebra.NewRel("l"), algebra.NewRel("r")
	var exprs []algebra.Expr
	for _, res := range residuals {
		on := scalar.NewAnd(scalar.Eq(0, 3), res)
		exprs = append(exprs,
			algebra.NewJoin(on, l, r),
			algebra.NewJoin(on, r, l),
			algebra.NewJoin(on, algebra.NewProject([]int{0, 2, 1}, l), r),
			algebra.NewJoin(scalar.NewAnd(scalar.Eq(3, 6), cmp(value.CmpNe, attr(8), attr(2))),
				algebra.NewJoin(on, l, r), r),
			algebra.NewGroupBy([]int{0}, algebra.AggCount, 4, algebra.NewJoin(on, l, r)),
		)
	}
	checked, residualPlans := 0, 0
	for round := 0; round < 40; round++ {
		src := MapSource{
			"l": residualRelation(rng, "l", 30),
			"r": residualRelation(rng, "r", 10),
		}
		batch := 1 + rng.Intn(4)
		for _, e := range exprs {
			ref, refErr := oracle.Eval(e, src)
			for _, w := range []int{1, 2, 4, 8} {
				eng := &Engine{Planner: plan.Planner{Workers: w, ParallelThreshold: 1, BatchSize: batch}}
				p, err := eng.planner(src).Plan(e, CatalogOf(src))
				if err != nil {
					t.Fatalf("round %d workers=%d: plan %s: %v", round, w, e, err)
				}
				if w == 1 && strings.Contains(p.String(), "residual=") {
					residualPlans++
				}
				phys, physErr := eng.Eval(e, src)
				if (refErr == nil) != (physErr == nil) {
					t.Fatalf("round %d workers=%d batch=%d: evaluators disagree on errors for %s:\noracle:    %v\nengine:    %v",
						round, w, batch, e, refErr, physErr)
				}
				if refErr != nil {
					continue
				}
				if err := ref.Check(phys); err != nil {
					t.Fatalf("round %d workers=%d batch=%d: %s: %v\n%s",
						round, w, batch, e, err, p)
				}
			}
			if refErr == nil {
				checked++
			}
		}
	}
	if total := 40 * len(exprs); checked < total/2 || residualPlans < total*3/4 {
		t.Errorf("%d of %d expressions evaluated cleanly, %d planned a residual join", checked, total, residualPlans)
	}
}
