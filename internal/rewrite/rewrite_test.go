package rewrite

import (
	"math/rand"
	"strings"
	"testing"

	"mra/internal/algebra"
	"mra/internal/eval"
	"mra/internal/multiset"
	"mra/internal/oracle"
	"mra/internal/plan"
	"mra/internal/scalar"
	"mra/internal/schema"
	"mra/internal/tuple"
	"mra/internal/value"
)

func beerCatalog() algebra.MapCatalog {
	return algebra.MapCatalog{
		"beer": schema.NewRelation("beer",
			schema.Attribute{Name: "name", Type: value.KindString},
			schema.Attribute{Name: "brewery", Type: value.KindString},
			schema.Attribute{Name: "alcperc", Type: value.KindFloat},
		),
		"brewery": schema.NewRelation("brewery",
			schema.Attribute{Name: "name", Type: value.KindString},
			schema.Attribute{Name: "city", Type: value.KindString},
			schema.Attribute{Name: "country", Type: value.KindString},
		),
	}
}

func TestSelectProductToJoin(t *testing.T) {
	cat := beerCatalog()
	expr := algebra.NewSelect(scalar.Eq(1, 3),
		algebra.NewProduct(algebra.NewRel("beer"), algebra.NewRel("brewery")))
	out, ok := (SelectProductToJoin{}).Apply(expr, cat)
	if !ok {
		t.Fatal("rule must fire")
	}
	if _, isJoin := out.(algebra.Join); !isJoin {
		t.Fatalf("rewrite produced %T", out)
	}
	// Not applicable elsewhere.
	if _, ok := (SelectProductToJoin{}).Apply(algebra.NewRel("beer"), cat); ok {
		t.Error("rule must not fire on a leaf")
	}
	if _, ok := (SelectProductToJoin{}).Apply(algebra.NewSelect(scalar.True{}, algebra.NewRel("beer")), cat); ok {
		t.Error("rule must not fire on a selection over a non-product")
	}
}

func TestMergeSelections(t *testing.T) {
	cat := beerCatalog()
	p := scalar.NewCompare(value.CmpGt, scalar.NewAttr(2), scalar.NewConst(value.NewFloat(5)))
	q := scalar.NewCompare(value.CmpEq, scalar.NewAttr(1), scalar.NewConst(value.NewString("guineken")))
	expr := algebra.NewSelect(p, algebra.NewSelect(q, algebra.NewRel("beer")))
	out, ok := (MergeSelections{}).Apply(expr, cat)
	if !ok {
		t.Fatal("rule must fire")
	}
	sel, isSel := out.(algebra.Select)
	if !isSel {
		t.Fatalf("rewrite produced %T", out)
	}
	if _, inner := sel.Input.(algebra.Select); inner {
		t.Error("selection cascade must collapse")
	}
	if _, ok := (MergeSelections{}).Apply(algebra.NewSelect(p, algebra.NewRel("beer")), cat); ok {
		t.Error("rule must not fire on a single selection")
	}
	if _, ok := (MergeSelections{}).Apply(algebra.NewRel("beer"), cat); ok {
		t.Error("rule must not fire on a leaf")
	}
}

func TestPushSelectionAndProjectionIntoUnion(t *testing.T) {
	cat := beerCatalog()
	pred := scalar.NewCompare(value.CmpGt, scalar.NewAttr(2), scalar.NewConst(value.NewFloat(5)))
	u := algebra.NewUnion(algebra.NewRel("beer"), algebra.NewRel("beer"))

	selExpr := algebra.NewSelect(pred, u)
	out, ok := (PushSelectionIntoUnion{}).Apply(selExpr, cat)
	if !ok {
		t.Fatal("selection rule must fire")
	}
	if _, isUnion := out.(algebra.Union); !isUnion {
		t.Fatalf("selection pushdown produced %T", out)
	}
	if _, ok := (PushSelectionIntoUnion{}).Apply(algebra.NewSelect(pred, algebra.NewRel("beer")), cat); ok {
		t.Error("selection rule must not fire over a non-union")
	}
	if _, ok := (PushSelectionIntoUnion{}).Apply(algebra.NewRel("beer"), cat); ok {
		t.Error("selection rule must not fire on a leaf")
	}

	projExpr := algebra.NewProject([]int{0}, u)
	out2, ok := (PushProjectionIntoUnion{}).Apply(projExpr, cat)
	if !ok {
		t.Fatal("projection rule must fire")
	}
	if _, isUnion := out2.(algebra.Union); !isUnion {
		t.Fatalf("projection pushdown produced %T", out2)
	}
	if _, ok := (PushProjectionIntoUnion{}).Apply(algebra.NewProject([]int{0}, algebra.NewRel("beer")), cat); ok {
		t.Error("projection rule must not fire over a non-union")
	}
	if _, ok := (PushProjectionIntoUnion{}).Apply(algebra.NewRel("beer"), cat); ok {
		t.Error("projection rule must not fire on a leaf")
	}
}

func TestDifferenceToIntersect(t *testing.T) {
	cat := beerCatalog()
	e1, e2 := algebra.NewRel("beer"), algebra.NewUnique(algebra.NewRel("beer"))
	expr := algebra.NewDifference(e1, algebra.NewDifference(e1, e2))
	out, ok := (DifferenceToIntersect{}).Apply(expr, cat)
	if !ok {
		t.Fatal("rule must fire")
	}
	inter, isInter := out.(algebra.Intersect)
	if !isInter {
		t.Fatalf("rewrite produced %T", out)
	}
	if inter.Right.String() != e2.String() {
		t.Error("intersection must keep the inner difference's right operand")
	}
	// Mismatched E1 must not fire.
	other := algebra.NewDifference(e2, algebra.NewDifference(e1, e2))
	if _, ok := (DifferenceToIntersect{}).Apply(other, cat); ok {
		t.Error("rule must not fire when the outer and inner left operands differ")
	}
	if _, ok := (DifferenceToIntersect{}).Apply(algebra.NewDifference(e1, e2), cat); ok {
		t.Error("rule must not fire on a plain difference")
	}
	if _, ok := (DifferenceToIntersect{}).Apply(algebra.NewRel("beer"), cat); ok {
		t.Error("rule must not fire on a leaf")
	}
}

func TestPushSelectionIntoJoin(t *testing.T) {
	cat := beerCatalog()
	// σ_{country='netherlands'}(beer ⋈_{%2=%4} brewery): the country conjunct
	// references only the right operand and must sink below the join.
	cond := scalar.NewCompare(value.CmpEq, scalar.NewAttr(5), scalar.NewConst(value.NewString("netherlands")))
	join := algebra.NewJoin(scalar.Eq(1, 3), algebra.NewRel("beer"), algebra.NewRel("brewery"))
	expr := algebra.NewSelect(cond, join)
	out, ok := (PushSelectionIntoJoin{}).Apply(expr, cat)
	if !ok {
		t.Fatal("rule must fire")
	}
	j, isJoin := out.(algebra.Join)
	if !isJoin {
		t.Fatalf("rewrite produced %T", out)
	}
	rightSel, isSel := j.Right.(algebra.Select)
	if !isSel {
		t.Fatalf("right operand should become a selection, got %T", j.Right)
	}
	// The pushed conjunct must be rebased to the brewery relation's own
	// positions: country is attribute %3 there.
	if !strings.Contains(rightSel.Cond.String(), "%3 = 'netherlands'") {
		t.Errorf("pushed conjunct not rebased: %s", rightSel.Cond)
	}
	if err := algebra.Validate(out, cat); err != nil {
		t.Errorf("rewritten expression must validate: %v", err)
	}

	// Left-only conjunct sinks to the left without rebasing.
	leftCond := scalar.NewCompare(value.CmpGt, scalar.NewAttr(2), scalar.NewConst(value.NewFloat(5)))
	out2, ok := (PushSelectionIntoJoin{}).Apply(algebra.NewSelect(leftCond, join), cat)
	if !ok {
		t.Fatal("left pushdown must fire")
	}
	j2 := out2.(algebra.Join)
	if _, isSel := j2.Left.(algebra.Select); !isSel {
		t.Errorf("left operand should become a selection, got %T", j2.Left)
	}
	if err := algebra.Validate(out2, cat); err != nil {
		t.Errorf("rewritten expression must validate: %v", err)
	}

	// A join whose condition only links both sides is left alone.
	if _, ok := (PushSelectionIntoJoin{}).Apply(join, cat); ok {
		t.Error("nothing to push: rule must not fire")
	}
	// Non-join selections are left alone.
	if _, ok := (PushSelectionIntoJoin{}).Apply(algebra.NewSelect(leftCond, algebra.NewRel("beer")), cat); ok {
		t.Error("rule must not fire on a selection over a leaf")
	}
	if _, ok := (PushSelectionIntoJoin{}).Apply(algebra.NewRel("beer"), cat); ok {
		t.Error("rule must not fire on a leaf")
	}
	// Direct Join case: conditions referencing one side only sink too.
	direct := algebra.NewJoin(scalar.NewAnd(scalar.Eq(1, 3), leftCond), algebra.NewRel("beer"), algebra.NewRel("brewery"))
	out3, ok := (PushSelectionIntoJoin{}).Apply(direct, cat)
	if !ok {
		t.Fatal("direct join pushdown must fire")
	}
	if err := algebra.Validate(out3, cat); err != nil {
		t.Errorf("rewritten join must validate: %v", err)
	}
	// A conjunct that can fail pins the whole condition: the law holds for
	// total predicates only, and pushed below the join a division would run
	// on rows the join drops.
	fallible := scalar.NewCompare(value.CmpGt,
		scalar.NewArith(value.OpDiv, scalar.NewConst(value.NewFloat(10)), scalar.NewAttr(2)), scalar.NewConst(value.NewFloat(1)))
	if _, ok := (PushSelectionIntoJoin{}).Apply(algebra.NewSelect(scalar.NewAnd(leftCond, fallible), join), cat); ok {
		t.Error("rule must not fire on a condition holding a division")
	}
	// Unknown relation: schema failure keeps the node unchanged.
	broken := algebra.NewJoin(scalar.Eq(0, 1), algebra.NewRel("missing"), algebra.NewRel("brewery"))
	if _, ok := (PushSelectionIntoJoin{}).Apply(broken, cat); ok {
		t.Error("rule must not fire when schemas cannot be resolved")
	}
}

func TestPushProjectionIntoGroupBy(t *testing.T) {
	cat := beerCatalog()
	join := algebra.NewJoin(scalar.Eq(1, 3), algebra.NewRel("beer"), algebra.NewRel("brewery"))
	g := algebra.NewGroupBy([]int{5}, algebra.AggAvg, 2, join)
	out, ok := (PushProjectionIntoGroupBy{}).Apply(g, cat)
	if !ok {
		t.Fatal("rule must fire")
	}
	ng, isG := out.(algebra.GroupBy)
	if !isG {
		t.Fatalf("rewrite produced %T", out)
	}
	proj, isProj := ng.Input.(algebra.Project)
	if !isProj {
		t.Fatalf("group-by input should become a projection, got %T", ng.Input)
	}
	if len(proj.Columns) != 2 || proj.Columns[0] != 5 || proj.Columns[1] != 2 {
		t.Errorf("projected columns = %v, want [5 2]", proj.Columns)
	}
	if len(ng.GroupCols) != 1 || ng.GroupCols[0] != 0 || ng.Aggs[0].Col != 1 {
		t.Errorf("remapped group-by = %+v", ng)
	}
	if err := algebra.Validate(out, cat); err != nil {
		t.Errorf("rewritten group-by must validate: %v", err)
	}
	// Rule must not fire again (input already minimal).
	if _, ok := (PushProjectionIntoGroupBy{}).Apply(out, cat); ok {
		t.Error("rule must be idempotent on its own output")
	}
	// Aggregate column inside the grouping list: no extra column added.
	g2 := algebra.NewGroupBy([]int{1}, algebra.AggCount, 1, join)
	out2, ok := (PushProjectionIntoGroupBy{}).Apply(g2, cat)
	if !ok {
		t.Fatal("rule must fire for CNT on a grouping column")
	}
	if cols := out2.(algebra.GroupBy).Input.(algebra.Project).Columns; len(cols) != 1 {
		t.Errorf("projection should keep exactly the grouping column, got %v", cols)
	}
	// Not applicable cases.
	if _, ok := (PushProjectionIntoGroupBy{}).Apply(algebra.NewRel("beer"), cat); ok {
		t.Error("rule must not fire on a leaf")
	}
	if _, ok := (PushProjectionIntoGroupBy{}).Apply(algebra.NewGroupBy([]int{0, 1}, algebra.AggAvg, 2, algebra.NewRel("beer")), cat); ok {
		t.Error("rule must not fire when every column is needed")
	}
	if _, ok := (PushProjectionIntoGroupBy{}).Apply(algebra.NewGroupBy([]int{0}, algebra.AggCount, 0, algebra.NewRel("missing")), cat); ok {
		t.Error("rule must not fire when the input schema cannot be resolved")
	}
}

func TestEliminationRules(t *testing.T) {
	cat := beerCatalog()
	dd := algebra.NewUnique(algebra.NewUnique(algebra.NewRel("beer")))
	out, ok := (EliminateDoubleUnique{}).Apply(dd, cat)
	if !ok {
		t.Fatal("double-unique rule must fire")
	}
	if _, still := out.(algebra.Unique); !still {
		t.Errorf("result should stay a single unique, got %T", out)
	}
	if _, ok := (EliminateDoubleUnique{}).Apply(algebra.NewUnique(algebra.NewRel("beer")), cat); ok {
		t.Error("single unique must stay")
	}
	if _, ok := (EliminateDoubleUnique{}).Apply(algebra.NewRel("beer"), cat); ok {
		t.Error("leaf must stay")
	}

	idp := algebra.NewProject([]int{0, 1, 2}, algebra.NewRel("beer"))
	out2, ok := (EliminateIdentityProject{}).Apply(idp, cat)
	if !ok {
		t.Fatal("identity projection rule must fire")
	}
	if _, isRel := out2.(algebra.Rel); !isRel {
		t.Errorf("identity projection should disappear, got %T", out2)
	}
	if _, ok := (EliminateIdentityProject{}).Apply(algebra.NewProject([]int{0, 2}, algebra.NewRel("beer")), cat); ok {
		t.Error("narrowing projection must stay")
	}
	if _, ok := (EliminateIdentityProject{}).Apply(algebra.NewProject([]int{2, 1, 0}, algebra.NewRel("beer")), cat); ok {
		t.Error("permuting projection must stay")
	}
	if _, ok := (EliminateIdentityProject{}).Apply(algebra.NewRel("beer"), cat); ok {
		t.Error("leaf must stay")
	}
	if _, ok := (EliminateIdentityProject{}).Apply(algebra.NewProject([]int{0}, algebra.NewRel("missing")), cat); ok {
		t.Error("unresolvable schema must keep the node")
	}
}

func TestRewriterEndToEnd(t *testing.T) {
	cat := beerCatalog()
	// The classic shape: σ_{country ∧ join}(beer × brewery) with a final
	// projection — the rewriter should produce a join with the country
	// selection pushed to the brewery side.
	cond := scalar.NewAnd(
		scalar.Eq(1, 3),
		scalar.NewCompare(value.CmpEq, scalar.NewAttr(5), scalar.NewConst(value.NewString("netherlands"))),
	)
	expr := algebra.NewProject([]int{0},
		algebra.NewSelect(cond,
			algebra.NewProduct(algebra.NewRel("beer"), algebra.NewRel("brewery"))))

	rw := NewRewriter()
	out, trace := rw.Rewrite(expr, cat)
	if len(trace) == 0 {
		t.Fatal("expected at least one rule application")
	}
	if err := algebra.Validate(out, cat); err != nil {
		t.Fatalf("rewritten expression must validate: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "join[") {
		t.Errorf("expected a join in the rewritten plan: %s", s)
	}
	if !strings.Contains(s, "select[%3 = 'netherlands'](brewery)") {
		t.Errorf("expected the country selection pushed onto brewery: %s", s)
	}
	for _, a := range trace {
		if a.Rule == "" {
			t.Errorf("malformed trace entry %+v", a)
		}
	}
	// Rewriting an already-optimal plan is a no-op.
	out2, trace2 := rw.Rewrite(out, cat)
	if len(trace2) != 0 {
		t.Errorf("second rewrite should be a fixpoint, applied %v", trace2)
	}
	if out2.String() != out.String() {
		t.Error("fixpoint rewrite must not change the plan")
	}
	// A rewriter with a nil rule set uses the defaults.
	out3, _ := (&Rewriter{}).Rewrite(expr, cat)
	if out3.String() != out.String() {
		t.Error("default rule set must be used when Rules is nil")
	}
}

func TestRewriteSoundnessOnRandomDatabases(t *testing.T) {
	// Soundness: the rewritten plan evaluates to the same multi-set as the
	// original on random databases.
	rng := rand.New(rand.NewSource(31))
	attrs := func(names ...string) []schema.Attribute {
		out := make([]schema.Attribute, len(names))
		for i, n := range names {
			out[i] = schema.Attribute{Name: n, Type: value.KindInt}
		}
		return out
	}
	rSchema := schema.NewRelation("r", attrs("a", "b")...)
	sSchema := schema.NewRelation("s", attrs("c", "d")...)
	newDB := func() eval.MapSource {
		r := multiset.New(rSchema)
		s := multiset.New(sSchema)
		for i := 0; i < 20; i++ {
			r.Add(tuple.Ints(int64(rng.Intn(6)), int64(rng.Intn(6))), uint64(1+rng.Intn(2)))
			s.Add(tuple.Ints(int64(rng.Intn(6)), int64(rng.Intn(6))), uint64(1+rng.Intn(2)))
		}
		return eval.MapSource{"r": r, "s": s}
	}

	joinCond := scalar.Eq(1, 2) // r.b = s.c
	leftPred := scalar.NewCompare(value.CmpGe, scalar.NewAttr(0), scalar.NewConst(value.NewInt(3)))
	rightPred := scalar.NewCompare(value.CmpLe, scalar.NewAttr(3), scalar.NewConst(value.NewInt(4)))
	exprs := []algebra.Expr{
		algebra.NewSelect(scalar.NewAnd(joinCond, leftPred, rightPred),
			algebra.NewProduct(algebra.NewRel("r"), algebra.NewRel("s"))),
		algebra.NewProject([]int{0},
			algebra.NewSelect(leftPred,
				algebra.NewUnion(algebra.NewRel("r"), algebra.NewRel("r")))),
		algebra.NewDifference(algebra.NewRel("r"), algebra.NewDifference(algebra.NewRel("r"), algebra.NewRel("r"))),
		algebra.NewGroupBy([]int{3}, algebra.AggSum, 0,
			algebra.NewJoin(joinCond, algebra.NewRel("r"), algebra.NewRel("s"))),
		algebra.NewUnique(algebra.NewUnique(algebra.NewProject([]int{0, 1}, algebra.NewRel("r")))),
		algebra.NewSelect(leftPred, algebra.NewSelect(rightPred,
			algebra.NewProduct(algebra.NewRel("r"), algebra.NewRel("s")))),
	}

	rw := NewRewriter()
	for round := 0; round < 25; round++ {
		src := newDB()
		cat := eval.CatalogOf(src)
		for _, e := range exprs {
			if err := algebra.Validate(e, cat); err != nil {
				t.Fatalf("precondition: %v", err)
			}
			opt, _ := rw.Rewrite(e, cat)
			if err := algebra.Validate(opt, cat); err != nil {
				t.Fatalf("rewritten plan invalid for %s: %v", e, err)
			}
			want, err := oracle.Eval(e, src)
			if err != nil {
				t.Fatalf("eval original %s: %v", e, err)
			}
			p, err := plan.NewPlanner(src).Plan(opt, cat)
			if err != nil {
				t.Fatalf("plan rewritten %s: %v", opt, err)
			}
			got, err := p.Execute(src)
			if err != nil {
				t.Fatalf("eval rewritten %s: %v", opt, err)
			}
			if err := want.Check(got); err != nil {
				t.Fatalf("round %d: rewrite changed the result\noriginal:  %s\nrewritten: %s\n%v",
					round, e, opt, err)
			}
		}
	}
}
