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

// mixedNumerics are the numbers whose equality crosses kinds: the numeric
// values of value.TestCmpEqImpliesSameHash (±0, ±1 as ints and floats, NaN
// payloads, ±Inf, the int64 extremes) plus the ints around 2^53 and ±2^63
// with their float neighbours, where several ints share one float image.
func mixedNumerics() []value.Value {
	const two53 = 1 << 53
	vals := []value.Value{
		value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)), value.NewInt(0),
		value.NewInt(1), value.NewFloat(1), value.NewInt(-1), value.NewFloat(-1),
		value.NewFloat(math.Inf(1)), value.NewFloat(math.Inf(-1)),
		value.NewFloat(math.NaN()), value.NewFloat(math.Float64frombits(0xfff0_dead_beef_0000)),
		value.NewFloat(0x1p63), value.NewFloat(-0x1p63),
		value.NewFloat(math.Nextafter(0x1p63, 0)), value.NewFloat(math.Nextafter(-0x1p63, 0)),
		value.NewFloat(two53), value.NewFloat(-two53),
		value.NewFloat(math.Nextafter(two53, math.Inf(1))), value.NewFloat(math.Nextafter(two53, 0)),
	}
	for k := int64(-2); k <= 2; k++ {
		vals = append(vals, value.NewInt(two53+k), value.NewInt(-two53+k))
	}
	for k := int64(0); k < 3; k++ {
		vals = append(vals, value.NewInt(math.MaxInt64-k), value.NewInt(math.MinInt64+k))
	}
	return vals
}

// mixedRows draws rows (a number, b small int) from mixedNumerics with
// multiplicities, so the operands of a binary operator overlap in values
// that are equal across kinds.
func mixedRows(rng *rand.Rand, pool []value.Value, draws int) []tuple.Tuple {
	rows := make([]tuple.Tuple, draws)
	for i := range rows {
		rows[i] = tuple.New(pool[rng.Intn(len(pool))], value.NewInt(int64(rng.Intn(2))))
	}
	return rows
}

// mixedRelation inserts rows into a fresh relation in the given order.
func mixedRelation(name string, rows []tuple.Tuple, order []int) *multiset.Relation {
	r := multiset.New(schema.NewRelation(name,
		schema.Attribute{Name: "a", Type: value.KindFloat},
		schema.Attribute{Name: "b", Type: value.KindInt},
	))
	for _, i := range order {
		r.Add(rows[i], 1)
	}
	return r
}

// TestPropertyOrderIndependence checks that no bag depends on the order in
// which equal numbers arrive.  Over random relations of mixed ints and floats
// — the values where int/float equality on float64 images was not
// transitive — ⊎ and ∩ commute, δ(A ⊎ B) = δ(B ⊎ A), and neither Γ, ∸ nor
// the equi-join depends on operand order or on the order rows were inserted
// in: every form, at workers 1, 2, 4 and 8, returns the oracle's bag.
func TestPropertyOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(253))
	pool := mixedNumerics()
	a, b := algebra.NewRel("a"), algebra.NewRel("b")
	union := func(l, r algebra.Expr) algebra.Expr { return algebra.NewUnion(l, r) }
	group := func(in algebra.Expr) algebra.Expr {
		return algebra.NewGroupByMulti([]int{0}, []algebra.AggSpec{
			{Fn: algebra.AggCount, Col: 1}, {Fn: algebra.AggMin, Col: 1}, {Fn: algebra.AggMax, Col: 1},
		}, in)
	}
	groupOnB := func(in algebra.Expr) algebra.Expr {
		return algebra.NewGroupByMulti([]int{1}, []algebra.AggSpec{
			{Fn: algebra.AggMin, Col: 0}, {Fn: algebra.AggMax, Col: 0}, {Fn: algebra.AggCount, Col: 0},
		}, in)
	}
	// Each law is a list of forms that must all return one bag.
	laws := []struct {
		name  string
		forms []algebra.Expr
	}{
		{"A⊎B = B⊎A", []algebra.Expr{union(a, b), union(b, a)}},
		{"A∩B = B∩A", []algebra.Expr{algebra.NewIntersect(a, b), algebra.NewIntersect(b, a)}},
		{"δ(A⊎B) = δ(B⊎A)", []algebra.Expr{algebra.NewUnique(union(a, b)), algebra.NewUnique(union(b, a))}},
		{"δπ(A⊎B) = δπ(B⊎A)", []algebra.Expr{
			algebra.NewUnique(algebra.NewProject([]int{0}, union(a, b))),
			algebra.NewUnique(algebra.NewProject([]int{0}, union(b, a)))}},
		{"Γ(A⊎B) = Γ(B⊎A)", []algebra.Expr{group(union(a, b)), group(union(b, a))}},
		{"Γ_b(A⊎B) = Γ_b(B⊎A)", []algebra.Expr{groupOnB(union(a, b)), groupOnB(union(b, a))}},
		{"πA ∸ πB", []algebra.Expr{algebra.NewDifference(algebra.NewProject([]int{0}, a), algebra.NewProject([]int{0}, b))}},
		{"A ⋈ B = π(B ⋈ A)", []algebra.Expr{
			algebra.NewJoin(scalar.Eq(0, 2), a, b),
			algebra.NewProject([]int{2, 3, 0, 1}, algebra.NewJoin(scalar.Eq(0, 2), b, a))}},
	}
	forward := func(n int) []int {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		return order
	}
	for round := 0; round < 30; round++ {
		rowsA, rowsB := mixedRows(rng, pool, 8+rng.Intn(24)), mixedRows(rng, pool, 8+rng.Intn(24))
		// The same relations, inserted forwards and in a random order.
		srcs := []MapSource{
			{"a": mixedRelation("a", rowsA, forward(len(rowsA))), "b": mixedRelation("b", rowsB, forward(len(rowsB)))},
			{"a": mixedRelation("a", rowsA, rng.Perm(len(rowsA))), "b": mixedRelation("b", rowsB, rng.Perm(len(rowsB)))},
		}
		for _, law := range laws {
			ref, err := oracle.Eval(law.forms[0], srcs[0])
			if err != nil {
				t.Fatalf("round %d: oracle %s: %v", round, law.forms[0], err)
			}
			for _, e := range law.forms[1:] {
				other, err := oracle.Eval(e, srcs[0])
				if err != nil {
					t.Fatalf("round %d: oracle %s: %v", round, e, err)
				}
				if d := ref.Diff(other); d != "" {
					t.Fatalf("round %d: %s: the oracle gives %s and %s different bags:\n%s", round, law.name, law.forms[0], e, d)
				}
			}
			for si, src := range srcs {
				for _, e := range law.forms {
					for _, w := range []int{1, 2, 4, 8} {
						eng := &Engine{Planner: plan.Planner{Workers: w, ParallelThreshold: 1, MorselSize: 1, BatchSize: 2}}
						phys, err := eng.Eval(e, src)
						if err != nil {
							t.Fatalf("round %d workers=%d: %s: %v", round, w, e, err)
						}
						if err := ref.Check(phys); err != nil {
							t.Fatalf("round %d workers=%d insertion order %d: %s: %s: %v", round, w, si, law.name, e, err)
						}
					}
				}
			}
		}
	}
}
