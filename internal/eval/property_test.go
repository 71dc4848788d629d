package eval

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mra/internal/algebra"
	"mra/internal/multiset"
	"mra/internal/oracle"
	"mra/internal/plan"
	"mra/internal/rewrite"
	"mra/internal/scalar"
	"mra/internal/schema"
	"mra/internal/tuple"
	"mra/internal/value"
)

// randomRelation builds a random two-attribute integer relation with small
// value ranges so that duplicates, overlaps and empty intersections all occur
// with useful probability.
func randomRelation(rng *rand.Rand, name string, maxTuples int) *multiset.Relation {
	s := schema.NewRelation(name,
		schema.Attribute{Name: "a", Type: value.KindInt},
		schema.Attribute{Name: "b", Type: value.KindInt},
	)
	r := multiset.New(s)
	n := rng.Intn(maxTuples + 1)
	for i := 0; i < n; i++ {
		t := tuple.Ints(int64(rng.Intn(5)), int64(rng.Intn(5)))
		r.Add(t, uint64(1+rng.Intn(3)))
	}
	return r
}

// randomSource builds a source with three random relations E1, E2, E3 of the
// same schema.
func randomSource(rng *rand.Rand) MapSource {
	return MapSource{
		"e1": randomRelation(rng, "e1", 12),
		"e2": randomRelation(rng, "e2", 12),
		"e3": randomRelation(rng, "e3", 12),
	}
}

// requireEqual fails the test unless two oracle bags are equal.
func requireEqual(t *testing.T, round int, label string, a, b oracle.Bag) {
	t.Helper()
	if d := a.Diff(b); d != "" {
		t.Fatalf("round %d: %s: left is want, right is got:\n%s", round, label, d)
	}
}

// requireMatch fails the test unless the engine's result is the oracle's bag.
func requireMatch(t *testing.T, round int, label string, ref oracle.Bag, phys *multiset.Relation) {
	t.Helper()
	if err := ref.Check(phys); err != nil {
		t.Fatalf("round %d: %s: %v", round, label, err)
	}
}

func evalOrFatal(t *testing.T, e algebra.Expr, src Source) oracle.Bag {
	t.Helper()
	r, err := oracle.Eval(e, src)
	if err != nil {
		t.Fatalf("eval %s: %v", e, err)
	}
	return r
}

// randomRelationN builds a random relation with the given arity, at most
// maxTuples distinct draws, and per-draw multiplicity up to maxMult, so
// duplicates with multiplicity well above one are guaranteed to occur.
func randomRelationN(rng *rand.Rand, name string, arity, maxTuples, maxMult int) *multiset.Relation {
	attrs := make([]schema.Attribute, arity)
	for i := range attrs {
		attrs[i] = schema.Attribute{Name: string(rune('a' + i)), Type: value.KindInt}
	}
	r := multiset.New(schema.NewRelation(name, attrs...))
	n := rng.Intn(maxTuples + 1)
	for i := 0; i < n; i++ {
		vals := make([]int64, arity)
		for j := range vals {
			vals[j] = int64(rng.Intn(4))
		}
		r.Add(tuple.Ints(vals...), uint64(1+rng.Intn(maxMult)))
	}
	return r
}

// TestPropertyJoinShapes cross-checks the physical hash join against the
// oracle on multi-column equi-joins with residual predicates,
// joins with an empty side (which the engine short-circuits), and asymmetric
// cardinalities in both orders (which flip the build side).
func TestPropertyJoinShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(314))

	big, small, empty := algebra.NewRel("big"), algebra.NewRel("small"), algebra.NewRel("empty")
	multiCol := scalar.NewAnd(scalar.Eq(0, 3), scalar.Eq(1, 4))
	withResidual := scalar.NewAnd(scalar.Eq(0, 3),
		scalar.NewCompare(value.CmpLt, scalar.NewAttr(1), scalar.NewAttr(5)))
	withOneSided := scalar.NewAnd(scalar.Eq(0, 3), scalar.Eq(2, 5),
		scalar.NewCompare(value.CmpGe, scalar.NewAttr(2), scalar.NewConst(value.NewInt(2))))
	exprs := []algebra.Expr{
		algebra.NewJoin(multiCol, big, small),
		algebra.NewJoin(multiCol, small, big),
		algebra.NewJoin(withResidual, big, small),
		algebra.NewJoin(withOneSided, big, small),
		algebra.NewJoin(multiCol, big, empty),
		algebra.NewJoin(multiCol, empty, small),
		// σφ(E1 × E2) must take the same hash-join path.
		algebra.NewSelect(withResidual, algebra.NewProduct(big, small)),
	}
	for round := 0; round < 60; round++ {
		src := MapSource{
			"big":   randomRelationN(rng, "big", 3, 24, 6),
			"small": randomRelationN(rng, "small", 3, 6, 6),
			"empty": randomRelationN(rng, "empty", 3, 0, 1),
		}
		for _, e := range exprs {
			ref, err := oracle.Eval(e, src)
			if err != nil {
				t.Fatalf("round %d: oracle eval %s: %v", round, e, err)
			}
			phys, err := (&Engine{}).Eval(e, src)
			if err != nil {
				t.Fatalf("round %d: engine eval %s: %v", round, e, err)
			}
			requireMatch(t, round, "engine vs oracle on "+e.String(), ref, phys)
		}
	}
}

// TestPropertyFusedPipelines cross-checks the engine's fused select/project
// pipelines (σ∘σ, π∘σ, σ∘π, π∘π and deeper cascades) against the oracle,
// which materialises every intermediate relation.
func TestPropertyFusedPipelines(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	e1, e2 := algebra.NewRel("e1"), algebra.NewRel("e2")
	p0 := scalar.NewCompare(value.CmpGe, scalar.NewAttr(0), scalar.NewConst(value.NewInt(1)))
	p1 := scalar.NewCompare(value.CmpLe, scalar.NewAttr(1), scalar.NewConst(value.NewInt(3)))
	exprs := []algebra.Expr{
		algebra.NewSelect(p0, algebra.NewSelect(p1, e1)),
		algebra.NewProject([]int{1, 0}, algebra.NewSelect(p0, e1)),
		algebra.NewSelect(p1, algebra.NewProject([]int{1, 0}, e1)),
		algebra.NewProject([]int{0}, algebra.NewProject([]int{1, 0}, e1)),
		// Repeated projection indices duplicate attributes.
		algebra.NewProject([]int{1, 1, 0}, algebra.NewSelect(p1, e1)),
		// A deep cascade over a union, so the fused pass runs over a derived
		// input rather than a base leaf.
		algebra.NewProject([]int{0},
			algebra.NewSelect(p0,
				algebra.NewProject([]int{1, 0},
					algebra.NewSelect(p1, algebra.NewUnion(e1, e2))))),
		// A select cascade directly above a product: the innermost σ becomes
		// a join, the outer stages fuse on top of it.
		algebra.NewSelect(p0, algebra.NewSelect(scalar.Eq(1, 2), algebra.NewProduct(e1, e2))),
	}
	for round := 0; round < 60; round++ {
		src := MapSource{
			"e1": randomRelationN(rng, "e1", 2, 12, 6),
			"e2": randomRelationN(rng, "e2", 2, 12, 6),
		}
		for _, e := range exprs {
			ref, err := oracle.Eval(e, src)
			if err != nil {
				t.Fatalf("round %d: oracle eval %s: %v", round, e, err)
			}
			phys, err := (&Engine{}).Eval(e, src)
			if err != nil {
				t.Fatalf("round %d: engine eval %s: %v", round, e, err)
			}
			requireMatch(t, round, "engine vs oracle on "+e.String(), ref, phys)
		}
	}
}

// TestPropertyEvaluatorsAgree cross-checks the physical engine against the
// oracle on randomly generated databases and a mix of operator
// shapes.
func TestPropertyEvaluatorsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	selPred := scalar.NewCompare(value.CmpGe, scalar.NewAttr(0), scalar.NewConst(value.NewInt(2)))
	exprs := []algebra.Expr{
		algebra.NewUnion(algebra.NewRel("e1"), algebra.NewRel("e2")),
		algebra.NewDifference(algebra.NewRel("e1"), algebra.NewRel("e2")),
		algebra.NewIntersect(algebra.NewRel("e1"), algebra.NewRel("e2")),
		algebra.NewJoin(scalar.Eq(1, 2), algebra.NewRel("e1"), algebra.NewRel("e2")),
		algebra.NewSelect(selPred, algebra.NewProduct(algebra.NewRel("e1"), algebra.NewRel("e2"))),
		algebra.NewProject([]int{1}, algebra.NewRel("e1")),
		algebra.NewUnique(algebra.NewUnion(algebra.NewRel("e1"), algebra.NewRel("e2"))),
		algebra.NewGroupBy([]int{0}, algebra.AggSum, 1, algebra.NewRel("e1")),
		algebra.NewGroupBy([]int{0}, algebra.AggCount, 1, algebra.NewUnion(algebra.NewRel("e1"), algebra.NewRel("e2"))),
		algebra.NewTClose(algebra.NewProject([]int{0, 1}, algebra.NewRel("e1"))),
	}
	for round := 0; round < 60; round++ {
		src := randomSource(rng)
		for _, e := range exprs {
			ref, err := oracle.Eval(e, src)
			if err != nil {
				t.Fatalf("round %d: oracle eval %s: %v", round, e, err)
			}
			phys, err := (&Engine{}).Eval(e, src)
			if err != nil {
				t.Fatalf("round %d: engine eval %s: %v", round, e, err)
			}
			requireMatch(t, round, "engine vs oracle on "+e.String(), ref, phys)
		}
	}
}

// TestPropertyTheorem31 checks E1 ∩ E2 = E1 − (E1 − E2) and
// E1 ⋈φ E2 = σφ(E1 × E2) on random databases.
func TestPropertyTheorem31(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 80; round++ {
		src := randomSource(rng)
		e1, e2 := algebra.NewRel("e1"), algebra.NewRel("e2")
		inter := evalOrFatal(t, algebra.NewIntersect(e1, e2), src)
		derived := evalOrFatal(t, algebra.NewDifference(e1, algebra.NewDifference(e1, e2)), src)
		requireEqual(t, round, "E1∩E2 = E1−(E1−E2)", inter, derived)

		cond := scalar.Eq(0, 2)
		join := evalOrFatal(t, algebra.NewJoin(cond, e1, e2), src)
		sigma := evalOrFatal(t, algebra.NewSelect(cond, algebra.NewProduct(e1, e2)), src)
		requireEqual(t, round, "E1⋈E2 = σ(E1×E2)", join, sigma)
	}
}

// TestPropertyTheorem32 checks the distribution of selection and projection
// over union, and the paper's remark that δ does not distribute over ⊎ but
// satisfies δ(E1⊎E2) = δE1 ∪ δE2 (set union = δ of the bag union).
func TestPropertyTheorem32(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	pred := scalar.NewCompare(value.CmpLe, scalar.NewAttr(1), scalar.NewConst(value.NewInt(2)))
	for round := 0; round < 80; round++ {
		src := randomSource(rng)
		e1, e2 := algebra.NewRel("e1"), algebra.NewRel("e2")

		selUnion := evalOrFatal(t, algebra.NewSelect(pred, algebra.NewUnion(e1, e2)), src)
		unionSel := evalOrFatal(t, algebra.NewUnion(algebra.NewSelect(pred, e1), algebra.NewSelect(pred, e2)), src)
		requireEqual(t, round, "σ(E1⊎E2) = σE1 ⊎ σE2", selUnion, unionSel)

		projUnion := evalOrFatal(t, algebra.NewProject([]int{0}, algebra.NewUnion(e1, e2)), src)
		unionProj := evalOrFatal(t, algebra.NewUnion(algebra.NewProject([]int{0}, e1), algebra.NewProject([]int{0}, e2)), src)
		requireEqual(t, round, "π(E1⊎E2) = πE1 ⊎ πE2", projUnion, unionProj)

		// δ(E1 ⊎ E2) equals δ(δE1 ⊎ δE2) (the set union of the deduplicated
		// operands), but in general differs from δE1 ⊎ δE2.
		dedupUnion := evalOrFatal(t, algebra.NewUnique(algebra.NewUnion(e1, e2)), src)
		setUnion := evalOrFatal(t, algebra.NewUnique(algebra.NewUnion(algebra.NewUnique(e1), algebra.NewUnique(e2))), src)
		requireEqual(t, round, "δ(E1⊎E2) = δ(δE1⊎δE2)", dedupUnion, setUnion)
	}
}

// TestDeltaDoesNotDistributeOverUnion pins the counter-example from the
// paper's Theorem 3.2 discussion: δ over ⊎ is not a homomorphism.
func TestDeltaDoesNotDistributeOverUnion(t *testing.T) {
	s := schema.Anonymous(schema.Attribute{Name: "x", Type: value.KindInt})
	shared := tuple.Ints(1)
	e1 := multiset.FromTuples(s, shared)
	e2 := multiset.FromTuples(s, shared)
	src := MapSource{"e1": e1, "e2": e2}
	left := evalOrFatal(t, algebra.NewUnique(algebra.NewUnion(algebra.NewRel("e1"), algebra.NewRel("e2"))), src)
	right := evalOrFatal(t, algebra.NewUnion(algebra.NewUnique(algebra.NewRel("e1")), algebra.NewUnique(algebra.NewRel("e2"))), src)
	if left.Equal(right) {
		t.Fatal("δ(E1⊎E2) must differ from δE1 ⊎ δE2 when E1 and E2 share a tuple")
	}
	if left.Multiplicity(shared) != 1 || right.Multiplicity(shared) != 2 {
		t.Errorf("expected multiplicities 1 vs 2, got %d vs %d", left.Multiplicity(shared), right.Multiplicity(shared))
	}
}

// TestPropertyTheorem33 checks associativity of ×, ⋈, ⊎ and ∩ on random
// databases (Theorem 3.3).
func TestPropertyTheorem33(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for round := 0; round < 60; round++ {
		src := randomSource(rng)
		e1, e2, e3 := algebra.NewRel("e1"), algebra.NewRel("e2"), algebra.NewRel("e3")

		u1 := evalOrFatal(t, algebra.NewUnion(algebra.NewUnion(e1, e2), e3), src)
		u2 := evalOrFatal(t, algebra.NewUnion(e1, algebra.NewUnion(e2, e3)), src)
		requireEqual(t, round, "(E1⊎E2)⊎E3 = E1⊎(E2⊎E3)", u1, u2)

		i1 := evalOrFatal(t, algebra.NewIntersect(algebra.NewIntersect(e1, e2), e3), src)
		i2 := evalOrFatal(t, algebra.NewIntersect(e1, algebra.NewIntersect(e2, e3)), src)
		requireEqual(t, round, "(E1∩E2)∩E3 = E1∩(E2∩E3)", i1, i2)

		p1 := evalOrFatal(t, algebra.NewProduct(algebra.NewProduct(e1, e2), e3), src)
		p2 := evalOrFatal(t, algebra.NewProduct(e1, algebra.NewProduct(e2, e3)), src)
		requireEqual(t, round, "(E1×E2)×E3 = E1×(E2×E3)", p1, p2)

		// Join associativity with conditions restricted to the adjacent
		// operands: (E1 ⋈_{%2=%3} E2) ⋈_{%4=%5} E3 = E1 ⋈_{%2=%3} (E2 ⋈_{%2=%3} E3)
		// — on the concatenated six-attribute schema both sides select the
		// same tuples.
		j1 := evalOrFatal(t, algebra.NewJoin(scalar.Eq(3, 4), algebra.NewJoin(scalar.Eq(1, 2), e1, e2), e3), src)
		j2 := evalOrFatal(t, algebra.NewJoin(scalar.Eq(1, 2), e1, algebra.NewJoin(scalar.Eq(1, 2), e2, e3)), src)
		requireEqual(t, round, "join associativity", j1, j2)
	}
}

// TestPropertyBagAxioms checks the multiplicity laws that make the operators a
// commutative-monoid structure: union commutativity, empty-relation identity,
// difference self-annihilation, intersection idempotence, and δ idempotence.
func TestPropertyBagAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 60; round++ {
		src := randomSource(rng)
		e1, e2 := algebra.NewRel("e1"), algebra.NewRel("e2")
		empty := algebra.Literal{Rel: src["e1"].Schema()}

		requireEqual(t, round, "E1⊎E2 = E2⊎E1",
			evalOrFatal(t, algebra.NewUnion(e1, e2), src),
			evalOrFatal(t, algebra.NewUnion(e2, e1), src))
		requireEqual(t, round, "E1⊎∅ = E1",
			evalOrFatal(t, algebra.NewUnion(e1, empty), src),
			evalOrFatal(t, e1, src))
		requireEqual(t, round, "E1−E1 = ∅",
			evalOrFatal(t, algebra.NewDifference(e1, e1), src),
			evalOrFatal(t, empty, src))
		requireEqual(t, round, "E1∩E1 = E1",
			evalOrFatal(t, algebra.NewIntersect(e1, e1), src),
			evalOrFatal(t, e1, src))
		requireEqual(t, round, "E1∩E2 = E2∩E1",
			evalOrFatal(t, algebra.NewIntersect(e1, e2), src),
			evalOrFatal(t, algebra.NewIntersect(e2, e1), src))
		requireEqual(t, round, "δδE1 = δE1",
			evalOrFatal(t, algebra.NewUnique(algebra.NewUnique(e1)), src),
			evalOrFatal(t, algebra.NewUnique(e1), src))
		requireEqual(t, round, "(E1−E2) ⊑ E1 via union check",
			evalOrFatal(t, algebra.NewUnion(algebra.NewDifference(e1, e2), algebra.NewIntersect(e1, e2)), src),
			evalOrFatal(t, e1, src))
	}
}

// TestPropertyCardinalities checks the cardinality identities
// |E1⊎E2| = |E1|+|E2| and |E1×E2| = |E1|·|E2|.
func TestPropertyCardinalities(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for round := 0; round < 60; round++ {
		src := randomSource(rng)
		c1 := src["e1"].Cardinality()
		c2 := src["e2"].Cardinality()
		u := evalOrFatal(t, algebra.NewUnion(algebra.NewRel("e1"), algebra.NewRel("e2")), src)
		if u.Cardinality() != c1+c2 {
			t.Fatalf("round %d: |E1⊎E2| = %d, want %d", round, u.Cardinality(), c1+c2)
		}
		p := evalOrFatal(t, algebra.NewProduct(algebra.NewRel("e1"), algebra.NewRel("e2")), src)
		if p.Cardinality() != c1*c2 {
			t.Fatalf("round %d: |E1×E2| = %d, want %d", round, p.Cardinality(), c1*c2)
		}
	}
}

// ---------------------------------------------------------------------------
// Random-expression property: the planner never changes bag semantics.
// ---------------------------------------------------------------------------

// exprGen generates random well-typed expressions of a requested output arity
// over the relations e1, e2, e3 (each two int attributes).  Attribute values
// and multiplicities are small, so duplicates, empty results and overlapping
// operands all occur with useful probability.
type exprGen struct {
	rng *rand.Rand
}

func (g *exprGen) intn(n int) int { return g.rng.Intn(n) }

// pred builds a random predicate over an input of the given arity.  One
// comparison in five is fallible (see fallible).
func (g *exprGen) pred(arity int, depth int) scalar.Predicate {
	if depth > 0 && g.intn(4) == 0 {
		switch g.intn(3) {
		case 0:
			return scalar.And{Left: g.pred(arity, depth-1), Right: g.pred(arity, depth-1)}
		case 1:
			return scalar.Or{Left: g.pred(arity, depth-1), Right: g.pred(arity, depth-1)}
		default:
			return scalar.Not{Operand: g.pred(arity, depth-1)}
		}
	}
	if g.intn(5) == 0 {
		return g.fallible(arity)
	}
	ops := []value.CompareOp{value.CmpEq, value.CmpLt, value.CmpGe, value.CmpNe}
	op := ops[g.intn(len(ops))]
	left := scalar.NewAttr(g.intn(arity))
	if g.intn(2) == 0 {
		return scalar.NewCompare(op, left, scalar.NewAttr(g.intn(arity)))
	}
	return scalar.NewCompare(op, left, scalar.NewConst(value.NewInt(int64(g.intn(5)))))
}

// fallible builds a comparison whose left side can fail: 12 divided by an
// attribute, which is a division by zero on every row holding 0 (every
// generated column holds zeros), or an attribute times 2^62, which fails
// with value.ErrOverflow for any attribute of 2 or more.  A plan that
// evaluates such a conjunct on a row the written expression never reaches
// fails where the oracle does not.
func (g *exprGen) fallible(arity int) scalar.Predicate {
	attr := scalar.NewAttr(g.intn(arity))
	if g.intn(2) == 0 {
		return scalar.NewCompare(value.CmpGe,
			scalar.NewArith(value.OpDiv, scalar.NewConst(value.NewInt(12)), attr), scalar.NewConst(value.NewInt(4)))
	}
	return scalar.NewCompare(value.CmpGt,
		scalar.NewArith(value.OpMul, attr, scalar.NewConst(value.NewInt(1<<62))), scalar.NewConst(value.NewInt(0)))
}

// cols picks n attribute positions (repeats allowed) from an input arity.
func (g *exprGen) cols(n, arity int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = g.intn(arity)
	}
	return out
}

// distinctCols picks up to n distinct positions from an input arity.
func (g *exprGen) distinctCols(n, arity int) []int {
	perm := g.rng.Perm(arity)
	if n > arity {
		n = arity
	}
	return perm[:n]
}

// gen returns a random expression with the given output arity.
func (g *exprGen) gen(depth, arity int) algebra.Expr {
	rels := []string{"e1", "e2", "e3"}
	base := func() algebra.Expr {
		rel := algebra.NewRel(rels[g.intn(len(rels))])
		if arity == 2 && g.intn(2) == 0 {
			return rel
		}
		return algebra.NewProject(g.cols(arity, 2), rel)
	}
	if depth <= 0 {
		return base()
	}
	switch g.intn(10) {
	case 0:
		return base()
	case 1:
		return algebra.NewSelect(g.pred(arity, 1), g.gen(depth-1, arity))
	case 2:
		inner := 1 + g.intn(3)
		return algebra.NewProject(g.cols(arity, inner), g.gen(depth-1, inner))
	case 3:
		// Extended projection with small integer arithmetic (no division, so
		// scalar errors do not dominate the sample).
		inner := 1 + g.intn(3)
		items := make([]scalar.Expr, arity)
		for i := range items {
			attr := scalar.NewAttr(g.intn(inner))
			if g.intn(2) == 0 {
				ops := []value.BinaryOp{value.OpAdd, value.OpMul}
				items[i] = scalar.NewArith(ops[g.intn(len(ops))], attr, scalar.NewConst(value.NewInt(int64(g.intn(3)))))
			} else {
				items[i] = attr
			}
		}
		return algebra.NewExtProject(items, nil, g.gen(depth-1, inner))
	case 4:
		switch g.intn(3) {
		case 0:
			return algebra.NewUnion(g.gen(depth-1, arity), g.gen(depth-1, arity))
		case 1:
			return algebra.NewDifference(g.gen(depth-1, arity), g.gen(depth-1, arity))
		default:
			return algebra.NewIntersect(g.gen(depth-1, arity), g.gen(depth-1, arity))
		}
	case 5:
		return algebra.NewUnique(g.gen(depth-1, arity))
	case 6:
		if arity < 2 {
			return base()
		}
		la := 1 + g.intn(arity-1)
		return algebra.NewProduct(g.gen(depth-1, la), g.gen(depth-1, arity-la))
	case 7:
		if arity < 2 {
			return base()
		}
		la := 1 + g.intn(arity-1)
		left, right := g.gen(depth-1, la), g.gen(depth-1, arity-la)
		// An equality conjunct linking the sides (the hash-join shape), with
		// an occasional residual comparison on the concatenated schema.
		cond := scalar.Predicate(scalar.Eq(g.intn(la), la+g.intn(arity-la)))
		if g.intn(2) == 0 {
			cond = scalar.And{Left: cond, Right: g.pred(arity, 0)}
		}
		if g.intn(4) == 0 {
			// Sometimes the σ(E1 × E2) spelling instead of the join.
			return algebra.NewSelect(cond, algebra.NewProduct(left, right))
		}
		return algebra.NewJoin(cond, left, right)
	case 8:
		// Group-by: output arity = grouping columns + the aggregate list.
		// Multi-aggregate groupbys occur with useful probability, so the
		// decomposable per-aggregate states are exercised side by side.
		nAggs := 1
		if arity > 1 && g.intn(2) == 0 {
			nAggs = 2
		}
		nGroup := arity - nAggs
		inner := nGroup + g.intn(2) + 1
		if inner < nGroup {
			inner = nGroup
		}
		if inner < 1 {
			inner = 1
		}
		fns := []algebra.Aggregate{algebra.AggCount, algebra.AggSum, algebra.AggMin, algebra.AggMax, algebra.AggAvg}
		specs := make([]algebra.AggSpec, nAggs)
		for i := range specs {
			specs[i] = algebra.AggSpec{Fn: fns[g.intn(len(fns))], Col: g.intn(inner)}
		}
		return algebra.NewGroupByMulti(g.distinctCols(nGroup, inner), specs, g.gen(depth-1, inner))
	default:
		if arity != 2 {
			return base()
		}
		return algebra.NewTClose(g.gen(depth-1, 2))
	}
}

// TestPropertyPlannerPreservesBagSemantics generates random expressions and
// asserts the planner-compiled physical execution agrees with the oracle — same multi-set, multiplicities included — and that it still agrees
// after the rewriter has transformed the expression.  The planner's compile
// step must never change bag semantics.
func TestPropertyPlannerPreservesBagSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(20260725))
	g := &exprGen{rng: rng}
	rw := rewrite.NewRewriter()
	checked, errored := 0, 0
	for round := 0; round < 40; round++ {
		src := randomSource(rng)
		cat := CatalogOf(src)
		for i := 0; i < 8; i++ {
			arity := 1 + g.intn(3)
			e := g.gen(3, arity)
			ref, refErr := oracle.Eval(e, src)
			phys, physErr := (&Engine{}).Eval(e, src)
			if (refErr == nil) != (physErr == nil) {
				t.Fatalf("round %d: evaluators disagree on errors for %s:\noracle:    %v\nphysical:  %v",
					round, e, refErr, physErr)
			}
			if refErr != nil {
				errored++
				continue
			}
			checked++
			if err := ref.Check(phys); err != nil {
				t.Fatalf("round %d: planner changed bag semantics of %s: %v",
					round, e, err)
			}
			// The rewritten expression must agree as well: rewriter and
			// planner compose without changing the multi-set.
			opt, _ := rw.Rewrite(e, cat)
			opt2, optErr := (&Engine{}).Eval(opt, src)
			if optErr != nil {
				t.Fatalf("round %d: rewritten %s failed: %v", round, opt, optErr)
			}
			if err := ref.Check(opt2); err != nil {
				t.Fatalf("round %d: rewrite+plan changed bag semantics:\noriginal:  %s\nrewritten: %s\n%v",
					round, e, opt, err)
			}
		}
	}
	if checked < 100 {
		t.Errorf("only %d random expressions evaluated cleanly (%d errored); generator too error-prone", checked, errored)
	}
}

// TestPropertyParallelMatchesReference is the parallel oracle property: for
// random expressions over random databases, the partitioned parallel engine
// must produce exactly the oracle's multi-set — multiplicities
// included — at every tested worker count, and must agree with it on whether
// evaluation errors.  ParallelThreshold 1 forces exchange operators onto the
// tiny random inputs, so the parallel operators (morsel-partitioned scans,
// shared-build joins, two-phase aggregation, merge) are exercised rather than
// planned away.  Every compiled parallel plan must also keep the morsel
// invariant: each Partition sits directly above a Scan, and no IndexScan
// sits anywhere below one.  Every other round runs over
// analysed, hence keyed, relations.  Run with -race to check the runtime's
// concurrency.
func TestPropertyParallelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1994))
	g := &exprGen{rng: rng}
	workerCounts := []int{1, 2, 4, 8}
	checked, errored := 0, 0
	for round := 0; round < 30; round++ {
		var src Source = randomSource(rng)
		if round%2 == 1 {
			src = AnalyzeSource(src.(MapSource))
		}
		for i := 0; i < 6; i++ {
			arity := 1 + g.intn(3)
			e := g.gen(3, arity)
			ref, refErr := oracle.Eval(e, src)
			for _, w := range workerCounts {
				eng := &Engine{Planner: plan.Planner{Workers: w, ParallelThreshold: 1}}
				if p, err := eng.planner(src).Plan(e, CatalogOf(src)); err == nil && w > 1 {
					if bad := partitionAboveNonLeaf(p.Root); bad != "" {
						t.Fatalf("round %d workers=%d: Partition above %q in the plan of %s:\n%s",
							round, w, bad, e, p)
					}
					if indexScanBelowPartition(p.Root, false) {
						t.Fatalf("round %d workers=%d: IndexScan below a Partition in the plan of %s:\n%s",
							round, w, e, p)
					}
				}
				phys, physErr := eng.Eval(e, src)
				if (refErr == nil) != (physErr == nil) {
					t.Fatalf("round %d workers=%d: evaluators disagree on errors for %s:\noracle:    %v\nparallel:  %v",
						round, w, e, refErr, physErr)
				}
				if refErr != nil {
					continue
				}
				if err := ref.Check(phys); err != nil {
					t.Fatalf("round %d workers=%d: parallel engine changed bag semantics of %s: %v",
						round, w, e, err)
				}
			}
			if refErr != nil {
				errored++
				continue
			}
			checked++
		}
	}
	if checked < 60 {
		t.Errorf("only %d random expressions evaluated cleanly (%d errored); generator too error-prone", checked, errored)
	}
}

// partitionAboveNonLeaf returns the operator below the first Partition of a
// plan that is not a Scan, or "" when there is none.  The morsel is the only
// split, and only a scanned relation has entry ranges to claim.
func partitionAboveNonLeaf(n plan.Node) string {
	if strings.HasPrefix(n.Describe(), "Partition [") {
		in := n.Children()[0].Describe()
		if !strings.HasPrefix(in, "Scan ") {
			return in
		}
	}
	for _, c := range n.Children() {
		if bad := partitionAboveNonLeaf(c); bad != "" {
			return bad
		}
	}
	return ""
}

// indexScanBelowPartition reports whether an IndexScan sits anywhere below a
// Partition of the tree rooted at n: a key lookup has no entry ranges for a
// morsel queue to split.
func indexScanBelowPartition(n plan.Node, below bool) bool {
	if below && strings.HasPrefix(n.Describe(), "IndexScan ") {
		return true
	}
	below = below || strings.HasPrefix(n.Describe(), "Partition [")
	for _, c := range n.Children() {
		if indexScanBelowPartition(c, below) {
			return true
		}
	}
	return false
}

// keyedRelation builds a random two-attribute relation whose first column
// ranges wider than its second, so ANALYZE usually keys it on %1 and
// sometimes on %2 or not at all.
func keyedRelation(rng *rand.Rand, name string, maxTuples int) *multiset.Relation {
	s := schema.NewRelation(name,
		schema.Attribute{Name: "a", Type: value.KindInt},
		schema.Attribute{Name: "b", Type: value.KindInt},
	)
	r := multiset.New(s)
	for i := rng.Intn(maxTuples + 1); i > 0; i-- {
		r.Add(tuple.Ints(int64(rng.Intn(10)), int64(rng.Intn(4))), uint64(1+rng.Intn(3)))
	}
	return r
}

// TestPropertyIndexScanMatchesReference is the key-lookup oracle: over
// analysed (keyed) random relations, selections σ[%c = k] directly over a
// relation — attribute left or constant left, alone or beside random
// residual conjuncts, on either column — inside random surrounding
// expressions must return the oracle's bag at workers 1, 2, 4
// and 8, and no plan may put an IndexScan below a Partition.  A minimum
// share of the compiled plans must actually contain an IndexScan, so the
// suite cannot pass by planning scans only.
func TestPropertyIndexScanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := &exprGen{rng: rng}
	plans, indexed := 0, 0
	for round := 0; round < 40; round++ {
		src := AnalyzeSource(MapSource{
			"e1": keyedRelation(rng, "e1", 14),
			"e2": keyedRelation(rng, "e2", 14),
			"e3": randomRelation(rng, "e3", 12),
		})
		for i := 0; i < 6; i++ {
			rel := algebra.NewRel([]string{"e1", "e2", "e3"}[g.intn(3)])
			k := scalar.NewConst(value.NewInt(int64(g.intn(10))))
			var key scalar.Predicate = scalar.NewCompare(value.CmpEq, scalar.NewAttr(g.intn(2)), k)
			if g.intn(2) == 0 {
				key = scalar.NewCompare(value.CmpEq, k, scalar.NewAttr(g.intn(2)))
			}
			switch g.intn(3) {
			case 1:
				key = scalar.And{Left: key, Right: g.pred(2, 1)}
			case 2:
				key = scalar.And{Left: g.pred(2, 1), Right: key}
			}
			var e algebra.Expr = algebra.NewSelect(key, rel)
			switch g.intn(5) {
			case 1:
				e = algebra.NewUnion(e, g.gen(2, 2))
			case 2:
				e = algebra.NewDifference(g.gen(2, 2), e)
			case 3:
				e = algebra.NewJoin(scalar.Eq(1, 2), e, g.gen(1, 2))
			case 4:
				e = algebra.NewProject(g.cols(1, 2), e)
			}
			ref, refErr := oracle.Eval(e, src)
			for _, w := range []int{1, 2, 4, 8} {
				eng := &Engine{Planner: plan.Planner{Workers: w, ParallelThreshold: 1}}
				p, err := eng.planner(src).Plan(e, CatalogOf(src))
				if err != nil {
					if refErr == nil {
						t.Fatalf("round %d workers=%d: planning %s: %v", round, w, e, err)
					}
					continue
				}
				plans++
				if strings.Contains(p.String(), "IndexScan ") {
					indexed++
				}
				if indexScanBelowPartition(p.Root, false) {
					t.Fatalf("round %d workers=%d: IndexScan below a Partition in the plan of %s:\n%s", round, w, e, p)
				}
				phys, physErr := eng.Eval(e, src)
				if (refErr == nil) != (physErr == nil) {
					t.Fatalf("round %d workers=%d: evaluators disagree on errors for %s:\noracle:    %v\nphysical:  %v",
						round, w, e, refErr, physErr)
				}
				if refErr != nil {
					continue
				}
				if err := ref.Check(phys); err != nil {
					t.Fatalf("round %d workers=%d: key lookup changed bag semantics of %s: %v\nplan:\n%s",
						round, w, e, err, p)
				}
			}
		}
	}
	if indexed < plans/3 {
		t.Errorf("only %d of %d plans used an IndexScan", indexed, plans)
	}
}

// skewedRelation builds a relation whose keys and multiplicities are heavily
// skewed: a handful of hot tuples carry most of the occurrences (a crude Zipf
// shape).  Under the static one-slice-per-worker scheduler such data
// concentrates work in one hash range; the morsel scheduler must stay exact
// while it rebalances.
func skewedRelation(rng *rand.Rand, name string, tuples int) *multiset.Relation {
	s := schema.NewRelation(name,
		schema.Attribute{Name: "a", Type: value.KindInt},
		schema.Attribute{Name: "b", Type: value.KindInt},
	)
	r := multiset.New(s)
	for i := 0; i < tuples; i++ {
		// Key 0 absorbs roughly half the draws, key 1 a quarter, and so on.
		key := 0
		for key < 4 && rng.Intn(2) == 0 {
			key++
		}
		mult := uint64(1)
		if key == 0 {
			mult = uint64(1 + rng.Intn(50)) // hot tuples are also heavy
		}
		r.Add(tuple.Ints(int64(key), int64(rng.Intn(3))), mult)
	}
	return r
}

// TestPropertyMorselStealingUnderSkew is the morsel-scheduler oracle: for
// skewed random databases, the parallel engine with forced exchanges, tiny
// morsels, and tiny emit batches must produce exactly the oracle's
// multi-set at workers 1, 2, 4 and 8 — for the batched-emit
// pipeline shapes, for the shared-build hash join, and for the serial
// blocking set operators Difference and Intersect over parallel operands.
// Tiny morsels force many
// steal rounds even on small inputs; tiny batches force flushes at every
// boundary.  Run with -race to check the queue and the shared build table.
func TestPropertyMorselStealingUnderSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(4994))
	pred := scalar.NewCompare(value.CmpGe, scalar.NewAttr(1), scalar.NewConst(value.NewInt(1)))
	e1, e2 := algebra.NewRel("e1"), algebra.NewRel("e2")
	exprs := []algebra.Expr{
		// Batched-emit pipelines.
		algebra.NewProject([]int{1}, algebra.NewSelect(pred, e1)),
		algebra.NewSelect(pred, algebra.NewUnion(e1, e2)),
		algebra.NewExtProject(
			[]scalar.Expr{scalar.NewArith(value.OpAdd, scalar.NewAttr(0), scalar.NewAttr(1))}, nil, e1),
		// Shared-build join probing the skewed side.
		algebra.NewJoin(scalar.Eq(0, 2), e1, e2),
		// Serial blocking set operators over their operands' exchanges.
		algebra.NewDifference(e1, e2),
		algebra.NewIntersect(e1, e2),
		algebra.NewDifference(algebra.NewSelect(pred, e1), algebra.NewProject([]int{0, 1}, e2)),
		// Two-phase aggregation over the hot keys: grouped single- and
		// multi-aggregate, and global aggregates (parallel via partial-state
		// merging), all pre-aggregated morsel-wise per worker.
		algebra.NewGroupBy([]int{0}, algebra.AggSum, 1, e1),
		algebra.NewGroupByMulti([]int{0}, []algebra.AggSpec{
			{Fn: algebra.AggCount, Col: 0}, {Fn: algebra.AggSum, Col: 1},
			{Fn: algebra.AggMin, Col: 1}, {Fn: algebra.AggMax, Col: 1},
		}, e1),
		algebra.NewGroupByMulti(nil, []algebra.AggSpec{
			{Fn: algebra.AggSum, Col: 1}, {Fn: algebra.AggAvg, Col: 0}, {Fn: algebra.AggMax, Col: 0},
		}, algebra.NewSelect(pred, e1)),
	}
	for round := 0; round < 25; round++ {
		src := MapSource{
			"e1": skewedRelation(rng, "e1", 40),
			"e2": skewedRelation(rng, "e2", 40),
		}
		for _, e := range exprs {
			ref, refErr := oracle.Eval(e, src)
			for _, w := range []int{1, 2, 4, 8} {
				eng := &Engine{Planner: plan.Planner{Workers: w, ParallelThreshold: 1, MorselSize: 1, BatchSize: 2}}
				phys, physErr := eng.Eval(e, src)
				if (refErr == nil) != (physErr == nil) {
					t.Fatalf("round %d workers=%d: evaluators disagree on errors for %s:\noracle:    %v\nparallel:  %v",
						round, w, e, refErr, physErr)
				}
				if refErr != nil {
					continue
				}
				if err := ref.Check(phys); err != nil {
					t.Fatalf("round %d workers=%d: morsel execution changed bag semantics of %s: %v",
						round, w, e, err)
				}
			}
		}
	}
}

// nanRelation builds a relation (a float, b int) whose first column mixes NaNs
// of several payloads with ±0, 1.5, and 3 held as both an int and a float:
// values that are Equal with different bit patterns, and a value that is not
// equal to any non-NaN value.
func nanRelation(rng *rand.Rand, name string, draws int) *multiset.Relation {
	r := multiset.New(schema.NewRelation(name,
		schema.Attribute{Name: "a", Type: value.KindFloat},
		schema.Attribute{Name: "b", Type: value.KindInt},
	))
	as := []value.Value{
		value.NewFloat(math.NaN()),
		value.NewFloat(math.Copysign(math.NaN(), -1)),
		value.NewFloat(math.Float64frombits(0x7ff8_0000_0000_beef)),
		value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)),
		value.NewFloat(1.5), value.NewInt(3), value.NewFloat(3),
	}
	for i := 0; i < draws; i++ {
		r.Add(tuple.New(as[rng.Intn(len(as))], value.NewInt(int64(rng.Intn(3)))), uint64(1+rng.Intn(3)))
	}
	return r
}

// TestPropertyNaNMatchesReference runs every operator that identifies tuples —
// δ, ∸, ∩, ⊎, grouping, the equi-join, and equality and order filters — over
// NaN-bearing relations at workers 1, 2, 4 and 8 against the oracle.  All NaNs
// are one value (Equal, one hash, above every number), so a plan that hashed
// or compared a NaN by its bits would split a group or drop a match.
func TestPropertyNaNMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2600))
	e1, e2 := algebra.NewRel("e1"), algebra.NewRel("e2")
	onA := func(op value.CompareOp, c value.Value) scalar.Predicate {
		return scalar.NewCompare(op, scalar.NewAttr(0), scalar.NewConst(c))
	}
	exprs := []algebra.Expr{
		algebra.NewUnique(e1),
		algebra.NewUnique(algebra.NewProject([]int{0}, e1)),
		algebra.NewDifference(e1, e2),
		algebra.NewDifference(e1, e1),
		algebra.NewIntersect(e1, e2),
		algebra.NewIntersect(e1, e1),
		algebra.NewUnion(e1, e2),
		algebra.NewGroupByMulti([]int{0}, []algebra.AggSpec{
			{Fn: algebra.AggCount, Col: 1}, {Fn: algebra.AggMin, Col: 1}, {Fn: algebra.AggMax, Col: 1},
		}, e1),
		algebra.NewGroupByMulti([]int{1}, []algebra.AggSpec{
			{Fn: algebra.AggMin, Col: 0}, {Fn: algebra.AggMax, Col: 0}, {Fn: algebra.AggSum, Col: 0},
		}, e1),
		algebra.NewJoin(scalar.Eq(0, 2), e1, e2),
		algebra.NewSelect(onA(value.CmpEq, value.NewFloat(1.5)), e1),
		algebra.NewSelect(onA(value.CmpEq, value.NewFloat(math.NaN())), e1),
		algebra.NewSelect(onA(value.CmpGt, value.NewFloat(1.5)), e1),
		algebra.NewSelect(onA(value.CmpLe, value.NewInt(3)), e1),
	}
	for round := 0; round < 15; round++ {
		src := MapSource{"e1": nanRelation(rng, "e1", 30), "e2": nanRelation(rng, "e2", 30)}
		for _, e := range exprs {
			ref, err := oracle.Eval(e, src)
			if err != nil {
				t.Fatalf("round %d: oracle %s: %v", round, e, err)
			}
			for _, w := range []int{1, 2, 4, 8} {
				eng := &Engine{Planner: plan.Planner{Workers: w, ParallelThreshold: 1, MorselSize: 1, BatchSize: 2}}
				phys, err := eng.Eval(e, src)
				if err != nil {
					t.Fatalf("round %d workers=%d: %s: %v", round, w, e, err)
				}
				if err := ref.Check(phys); err != nil {
					t.Fatalf("round %d workers=%d: plan disagrees with the oracle on %s: %v",
						round, w, e, err)
				}
			}
		}
		// The definitions themselves: δ keeps one NaN class, and R ∸ R is empty.
		u, _ := oracle.Eval(algebra.NewUnique(algebra.NewProject([]int{0}, e1)), src)
		nans := 0
		u.Each(func(vals []value.Value, _ uint64) bool {
			if vals[0].Kind() == value.KindFloat && math.IsNaN(vals[0].Float()) {
				nans++
			}
			return true
		})
		if nans > 1 {
			t.Fatalf("round %d: δπ_a(e1) keeps %d NaN tuples: %s", round, nans, u)
		}
		if d, _ := oracle.Eval(algebra.NewDifference(e1, e1), src); !d.IsEmpty() {
			t.Fatalf("round %d: e1 ∸ e1 = %s, want empty", round, d)
		}
	}
}

// aggShape renders the plan the engine compiles for e over src and classifies
// the aggregate shape the planner chose: "two-phase" (GroupMerge over partial
// aggregates) or "serial" (no exchange anywhere in the plan).
func aggShape(t *testing.T, eng *Engine, e algebra.Expr, src Source) string {
	t.Helper()
	p, err := eng.planner(src).Plan(e, CatalogOf(src))
	if err != nil {
		t.Fatalf("plan %s: %v", e, err)
	}
	switch rendering := p.String(); {
	case strings.Contains(rendering, "GroupMerge"):
		return "two-phase"
	case strings.Contains(rendering, "Merge") || strings.Contains(rendering, "Partition"):
		return "other exchange"
	default:
		return "serial"
	}
}

// distinctRelation builds a duplicate-free relation of n tuples (i, small):
// grouping on all of its columns, or on its first, has no pre-aggregation
// reduction at all.
func distinctRelation(rng *rand.Rand, name string, n int) *multiset.Relation {
	r := multiset.New(schema.NewRelation(name,
		schema.Attribute{Name: "a", Type: value.KindInt},
		schema.Attribute{Name: "b", Type: value.KindInt},
	))
	for i := 0; i < n; i++ {
		r.Add(tuple.Ints(int64(i), int64(rng.Intn(3))), 1)
	}
	return r
}

// TestPropertyMultiAggregateParallel is the parallel aggregation oracle: for
// random uniform, skewed and duplicate-free databases, multi-aggregate grouped
// queries and global (ungrouped) aggregates run through the parallel engine
// with forced exchanges and tiny morsels must produce exactly the oracle's
// multi-set at workers 1, 2, 4 and 8.  Both outcomes of the
// cost-based chooser are reached through the data alone and asserted on the
// rendered plan: low-NDV grouping over heavily duplicated input plans
// two-phase (workers pre-aggregate morsel-wise into partial states the gang
// parent merges, so a group spanning every worker must still finalise to the
// serial value), while grouping a duplicate-free input on all its columns —
// or, with ANALYZE-grade statistics, on its unique column — stays serial,
// with no exchange beneath the aggregate.
func TestPropertyMultiAggregateParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(3441))
	e1 := algebra.NewRel("e1")
	byFirst := algebra.NewGroupByMulti([]int{0}, []algebra.AggSpec{
		{Fn: algebra.AggCount, Col: 0}, {Fn: algebra.AggSum, Col: 1},
		{Fn: algebra.AggAvg, Col: 1}, {Fn: algebra.AggMin, Col: 1}, {Fn: algebra.AggMax, Col: 1},
	}, e1)
	byAll := algebra.NewGroupByMulti([]int{1, 0}, []algebra.AggSpec{
		{Fn: algebra.AggSum, Col: 0}, {Fn: algebra.AggCount, Col: 1},
	}, e1)
	exprs := []algebra.Expr{
		byFirst,
		byAll,
		algebra.NewGroupByMulti(nil, []algebra.AggSpec{
			{Fn: algebra.AggCount, Col: 0}, {Fn: algebra.AggSum, Col: 1},
			{Fn: algebra.AggAvg, Col: 0}, {Fn: algebra.AggMin, Col: 1}, {Fn: algebra.AggMax, Col: 0},
		}, e1),
		// Aggregation above a pipeline, so the morsel partitions sit below a
		// filter whose selectivity varies per round (and may empty the input,
		// exercising the empty-group global path).
		algebra.NewGroupByMulti(nil, []algebra.AggSpec{
			{Fn: algebra.AggAvg, Col: 1}, {Fn: algebra.AggMax, Col: 1},
		}, algebra.NewSelect(
			scalar.NewCompare(value.CmpGe, scalar.NewAttr(0), scalar.NewConst(value.NewInt(3))), e1)),
	}
	// check pins one query over one source against the oracle at every worker
	// count and, where wantShape is set, the parallel shape planned for it.
	check := func(round int, e algebra.Expr, src Source, wantShape string) {
		ref, refErr := oracle.Eval(e, src)
		for _, w := range []int{1, 2, 4, 8} {
			eng := &Engine{Planner: plan.Planner{Workers: w, ParallelThreshold: 1, MorselSize: 1, BatchSize: 2}}
			if wantShape != "" && w > 1 {
				if shape := aggShape(t, eng, e, src); shape != wantShape {
					t.Fatalf("round %d workers=%d: %s planned %s, want %s", round, w, e, shape, wantShape)
				}
			}
			phys, physErr := eng.Eval(e, src)
			if (refErr == nil) != (physErr == nil) {
				t.Fatalf("round %d workers=%d: evaluators disagree on errors for %s:\noracle:    %v\nparallel:  %v",
					round, w, e, refErr, physErr)
			}
			if refErr != nil {
				continue
			}
			if err := ref.Check(phys); err != nil {
				t.Fatalf("round %d workers=%d: parallel aggregation changed bag semantics of %s: %v",
					round, w, e, err)
			}
		}
	}
	for round := 0; round < 25; round++ {
		skewed := MapSource{"e1": skewedRelation(rng, "e1", 40)}
		uniform := MapSource{"e1": randomRelationN(rng, "e1", 2, 20, 6)}
		distinct := MapSource{"e1": distinctRelation(rng, "e1", 30)}
		for _, e := range exprs {
			if round%2 == 0 {
				check(round, e, skewed, "")
			} else {
				check(round, e, uniform, "")
			}
		}
		check(round, byFirst, skewed, "two-phase")
		check(round, byAll, distinct, "serial")
		check(round, byFirst, AnalyzeSource(distinct), "serial")
	}
}

// TestPropertyColumnarAdversarialSizes is the columnar-batch oracle at the
// batch sizes that stress every selection-vector edge: BatchSize 1 makes each
// batch a single physical row (a filter leaves it fully live or fully dead),
// BatchSize 2 forces partial selections, and MorselSize 1 makes every morsel a
// boundary.  The suite pins the columnar loops — the one execution protocol,
// serial and parallel — against the oracle at workers 1, 2, 4 and 8 on skewed
// data: hot tuples recur across many chunks, so the same tuple appears
// repeatedly within and across batches.  At ParallelThreshold 1 the hash
// join is a shared build probed by the gang (asserted on the rendered plan).
//
// Run with -race to check the shared build table.
func TestPropertyColumnarAdversarialSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(7117))
	pred := scalar.NewCompare(value.CmpGe, scalar.NewAttr(1), scalar.NewConst(value.NewInt(1)))
	e1, e2 := algebra.NewRel("e1"), algebra.NewRel("e2")
	join := algebra.NewJoin(scalar.Eq(0, 2), algebra.NewSelect(pred, e1), e2)
	exprs := []algebra.Expr{
		// Vectorised filter kernels above and below projections.
		algebra.NewProject([]int{1}, algebra.NewSelect(pred, e1)),
		algebra.NewSelect(pred, algebra.NewProject([]int{1, 0}, e1)),
		// A conjunction compiling to two kernels, and a predicate shape the
		// kernel compiler rejects (attr-attr arithmetic inside the compare),
		// exercising the row-wise fallback that still produces selections.
		algebra.NewSelect(scalar.NewAnd(pred,
			scalar.NewCompare(value.CmpLt, scalar.NewAttr(0), scalar.NewConst(value.NewInt(3)))), e1),
		algebra.NewSelect(scalar.NewCompare(value.CmpLe,
			scalar.NewArith(value.OpAdd, scalar.NewAttr(0), scalar.NewAttr(1)),
			scalar.NewConst(value.NewInt(4))), e1),
		// Extended projection evaluating expressions per live row.
		algebra.NewExtProject(
			[]scalar.Expr{scalar.NewArith(value.OpMul, scalar.NewAttr(0), scalar.NewAttr(1))}, nil, e1),
		// Columnar join probe over a selection, probing a shared build.
		join,
		// Columnar aggregate update above a filter.
		algebra.NewGroupByMulti([]int{0}, []algebra.AggSpec{
			{Fn: algebra.AggCount, Col: 0}, {Fn: algebra.AggSum, Col: 1},
			{Fn: algebra.AggMin, Col: 1}, {Fn: algebra.AggMax, Col: 1},
		}, algebra.NewSelect(pred, e1)),
		// Division above a filter that removes its zero divisors: skewed data
		// puts %1 = 0 in about half the draws, so evaluating a dead row would
		// fail with a division by zero that the oracle never raises.
		algebra.NewExtProject(
			[]scalar.Expr{scalar.NewArith(value.OpDiv, scalar.NewAttr(1), scalar.NewAttr(0))}, nil,
			algebra.NewSelect(scalar.NewCompare(value.CmpNe, scalar.NewAttr(0), scalar.NewConst(value.NewInt(0))), e1)),
	}
	for round := 0; round < 15; round++ {
		src := MapSource{
			"e1": skewedRelation(rng, "e1", 40),
			"e2": skewedRelation(rng, "e2", 40),
		}
		gang := &Engine{Planner: plan.Planner{Workers: 2, ParallelThreshold: 1}}
		if p, err := gang.planner(src).Plan(join, CatalogOf(src)); err != nil {
			t.Fatal(err)
		} else if !strings.Contains(p.String(), " shared") {
			t.Fatalf("round %d: ParallelThreshold 1 must plan a shared-build join:\n%s", round, p)
		}
		for _, e := range exprs {
			ref, refErr := oracle.Eval(e, src)
			for _, bs := range []int{1, 2} {
				for _, w := range []int{1, 2, 4, 8} {
					eng := &Engine{Planner: plan.Planner{Workers: w, ParallelThreshold: 1, MorselSize: 1, BatchSize: bs}}
					phys, physErr := eng.Eval(e, src)
					if (refErr == nil) != (physErr == nil) {
						t.Fatalf("round %d workers=%d batch=%d: evaluators disagree on errors for %s:\noracle:    %v\ncolumnar:  %v",
							round, w, bs, e, refErr, physErr)
					}
					if refErr != nil {
						continue
					}
					if err := ref.Check(phys); err != nil {
						t.Fatalf("round %d workers=%d batch=%d: columnar execution changed bag semantics of %s: %v",
							round, w, bs, e, err)
					}
				}
			}
		}
	}
}

// TestEmptyInputAggregatesParallel pins Definition 3.3's partiality under the
// parallel runtime: AVG, MIN and MAX over an empty input must fail with
// ErrEmptyAggregate at every worker count (the merged partial states of an
// empty gang finalise to the same error the serial path raises), while CNT
// and SUM still yield 0.
func TestEmptyInputAggregatesParallel(t *testing.T) {
	empty := MapSource{"e": multiset.New(schema.NewRelation("e",
		schema.Attribute{Name: "a", Type: value.KindInt},
		schema.Attribute{Name: "b", Type: value.KindInt},
	))}
	for _, w := range []int{1, 2, 4, 8} {
		eng := &Engine{Planner: plan.Planner{Workers: w, ParallelThreshold: 1, MorselSize: 1, BatchSize: 2}}
		for _, fn := range []algebra.Aggregate{algebra.AggAvg, algebra.AggMin, algebra.AggMax} {
			if _, err := eng.Eval(algebra.NewGroupBy(nil, fn, 0, algebra.NewRel("e")), empty); !errors.Is(err, plan.ErrEmptyAggregate) {
				t.Errorf("workers=%d: global %s over empty input = %v, want ErrEmptyAggregate", w, fn, err)
			}
		}
		// A multi-aggregate list fails as soon as one member is undefined.
		multi := algebra.NewGroupByMulti(nil, []algebra.AggSpec{
			{Fn: algebra.AggCount, Col: 0}, {Fn: algebra.AggAvg, Col: 1},
		}, algebra.NewRel("e"))
		if _, err := eng.Eval(multi, empty); !errors.Is(err, plan.ErrEmptyAggregate) {
			t.Errorf("workers=%d: multi-aggregate over empty input = %v, want ErrEmptyAggregate", w, err)
		}
		counts, err := eng.Eval(algebra.NewGroupByMulti(nil, []algebra.AggSpec{
			{Fn: algebra.AggCount, Col: 0}, {Fn: algebra.AggSum, Col: 1},
		}, algebra.NewRel("e")), empty)
		if err != nil {
			t.Fatalf("workers=%d: CNT/SUM over empty input: %v", w, err)
		}
		if !counts.Contains(tuple.Ints(0, 0)) {
			t.Errorf("workers=%d: CNT/SUM over empty input = %s, want (0, 0)", w, counts)
		}
	}
}
