package eval

import (
	"math"
	"math/rand"
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

// setOpPool is the value set of the ∸/∩ property: nulls, NaN payloads, ±0,
// 1 vs 1.0, 2^53 ± 1 beside 2^53.0, and strings — values equal across kinds
// or equal under one bit pattern but not another, and distinct strings of
// one byte length.
func setOpPool() []value.Value {
	pool := []value.Value{
		value.Null,
		value.NewFloat(math.NaN()),
		value.NewFloat(math.Float64frombits(0xfff0_dead_beef_0000)),
		value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)), value.NewInt(0),
		value.NewInt(1), value.NewFloat(1),
		value.NewInt(1<<53 - 1), value.NewInt(1 << 53), value.NewInt(1<<53 + 1), value.NewFloat(1 << 53),
	}
	return append(pool, setOpStrings()...)
}

// setOpStrings are the pool's strings: "ab"/"ba" and "é"/"è" are distinct
// strings of equal byte length, so a table that compared strings by length
// (or by anything short of every byte) would merge them.
func setOpStrings() []value.Value {
	return []value.Value{
		value.NewString(""), value.NewString("a"),
		value.NewString("ab"), value.NewString("ba"), value.NewString("é"), value.NewString("è"),
	}
}

// stringRelation draws rows (a, k): a string from vals and a small int k, at
// multiplicities up to four.
func stringRelation(rng *rand.Rand, name string, vals []value.Value) *multiset.Relation {
	r := multiset.New(schema.NewRelation(name,
		schema.Attribute{Name: "a", Type: value.KindString}, schema.Attribute{Name: "k", Type: value.KindInt}))
	for n := rng.Intn(40); n > 0; n-- {
		r.Add(tuple.New(vals[rng.Intn(len(vals))], value.NewInt(int64(rng.Intn(3)))), uint64(1+rng.Intn(4)))
	}
	return r
}

// setOpNumbers are the values of the second column: numbers only, so a
// filter can compare them, equal across kinds.
func setOpNumbers() []value.Value {
	return []value.Value{value.NewInt(0), value.NewFloat(math.Copysign(0, -1)), value.NewInt(1), value.NewFloat(1)}
}

// setOpRelation draws rows (a, b) or, with k set, (a, b, k): a from vals, b
// from setOpNumbers and k a small int, at multiplicities up to four, so equal
// (a, b) pairs recur across draws with different k.
func setOpRelation(rng *rand.Rand, name string, vals []value.Value, k bool) *multiset.Relation {
	nums := setOpNumbers()
	attrs := []schema.Attribute{{Name: "a", Type: value.KindInt}, {Name: "b", Type: value.KindInt}}
	if k {
		attrs = append(attrs, schema.Attribute{Name: "k", Type: value.KindInt})
	}
	r := multiset.New(schema.NewRelation(name, attrs...))
	for n := rng.Intn(40); n > 0; n-- {
		row := []value.Value{vals[rng.Intn(len(vals))], nums[rng.Intn(len(nums))], value.NewInt(int64(rng.Intn(4)))}
		r.Add(tuple.New(row[:len(attrs)]...), uint64(1+rng.Intn(4)))
	}
	return r
}

// setOpOperand returns a random two-column operand over r and s that
// reaches ∸ and ∩ in one of the batch shapes: π over a scan (columnar, with
// equal rows in different chunks), π over σ (columnar with a selection), σ
// over a scan of pairs (row view with a selection), a bare scan of pairs
// (row view), or ⊎ of two of those (equal tuples split across operands).
func setOpOperand(rng *rand.Rand, depth int) algebra.Expr {
	rel := []string{"r", "s"}[rng.Intn(2)]
	switch rng.Intn(5) {
	case 0:
		return algebra.NewProject([]int{0, 1}, algebra.NewRel(rel))
	case 1:
		return algebra.NewProject([]int{0, 1}, algebra.NewSelect(
			scalar.NewCompare(value.CmpLt, scalar.NewAttr(2), scalar.NewConst(value.NewInt(2))), algebra.NewRel(rel)))
	case 2:
		return algebra.NewSelect(scalar.NewCompare(value.CmpLt, scalar.NewAttr(1), scalar.NewConst(value.NewInt(1))),
			algebra.NewRel("p"))
	case 3:
		return algebra.NewRel("p")
	default:
		if depth == 0 {
			return algebra.NewRel("p")
		}
		return algebra.NewUnion(setOpOperand(rng, depth-1), setOpOperand(rng, depth-1))
	}
}

// TestPropertyCountedSetOpsMatchOracle is the property of ∸ and ∩ as a
// counted build and a streaming probe: over operands with heavy duplicates on
// both sides, whose equal tuples arrive split across chunks, batches and
// operands as row-view, columnar and selection-narrowed batches, R ∸ S, S ∸ R,
// R ∩ S and S ∩ R, and set operators nested in each other, must be the
// oracle's bag — max(0, R(t) − S(t)) and min(R(t), S(t)) per tuple — at
// workers 1, 2, 4 and 8 with batches of one to three rows, whatever order the
// rows reach the probe in.  In a third of the rounds δ, Γ grouped by %1 with
// CNT, and ⋈ on %1 also run over a string-only column drawn from the pool's
// strings, equal-length distinct ones included, against the same oracle.
func TestPropertyCountedSetOpsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4343))
	pool, strs := setOpPool(), setOpStrings()
	matched := 0
	for round := 0; round < 60; round++ {
		// A few pool values per round, so duplicates are heavy.
		vals := make([]value.Value, 2+rng.Intn(3))
		for i := range vals {
			vals[i] = pool[rng.Intn(len(pool))]
		}
		src := MapSource{
			"r": setOpRelation(rng, "r", vals, true),
			"s": setOpRelation(rng, "s", vals, true),
			"p": setOpRelation(rng, "p", vals, false),
		}
		a, b := setOpOperand(rng, 1), setOpOperand(rng, 1)
		forms := []algebra.Expr{
			algebra.NewDifference(a, b), algebra.NewDifference(b, a),
			algebra.NewIntersect(a, b), algebra.NewIntersect(b, a),
			algebra.NewIntersect(algebra.NewDifference(a, b), algebra.NewUnion(a, b)),
			algebra.NewDifference(algebra.NewUnion(a, a), algebra.NewIntersect(b, a)),
		}
		if round%3 == 2 {
			svals := make([]value.Value, 2+rng.Intn(3))
			for i := range svals {
				svals[i] = strs[rng.Intn(len(strs))]
			}
			src["q"], src["q2"] = stringRelation(rng, "q", svals), stringRelation(rng, "q2", svals)
			q := algebra.NewRel("q")
			forms = append(forms,
				algebra.NewUnique(algebra.NewProject([]int{0}, q)),
				algebra.NewGroupByMulti([]int{0}, []algebra.AggSpec{{Fn: algebra.AggCount, Col: 0}}, q),
				algebra.NewJoin(scalar.Eq(0, 2), q, algebra.NewRel("q2")),
			)
		}
		for _, e := range forms {
			ref, err := oracle.Eval(e, src)
			if err != nil {
				t.Fatalf("round %d: oracle %s: %v", round, e, err)
			}
			if _, ok := e.(algebra.Intersect); ok && !ref.IsEmpty() {
				matched++
			}
			for _, w := range []int{1, 2, 4, 8} {
				eng := &Engine{Planner: plan.Planner{Workers: w, ParallelThreshold: 1,
					MorselSize: 1 + rng.Intn(3), BatchSize: 1 + rng.Intn(3)}}
				got, err := eng.Eval(e, src)
				if err != nil {
					t.Fatalf("round %d workers=%d: %s: %v", round, w, e, err)
				}
				if err := ref.Check(got); err != nil {
					t.Fatalf("round %d workers=%d: %s: %v", round, w, e, err)
				}
			}
		}
	}
	if matched < 60 {
		t.Errorf("only %d of 240 intersections were non-empty; the operands overlap too little", matched)
	}
}
