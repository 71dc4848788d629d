package plan

import (
	"strings"
	"testing"

	"mra/internal/algebra"
	"mra/internal/multiset"
	"mra/internal/scalar"
	"mra/internal/schema"
	"mra/internal/tuple"
	"mra/internal/value"
)

// mapSource is a test double for the execution source.
type mapSource map[string]*multiset.Relation

func (m mapSource) Relation(name string) (*multiset.Relation, bool) {
	r, ok := m[name]
	return r, ok
}

// catalogOf derives a catalog from the source's relation schemas.
func catalogOf(src mapSource) algebra.Catalog {
	cat := make(algebra.MapCatalog, len(src))
	for k, r := range src {
		cat[k] = r.Schema()
	}
	return cat
}

// testSource builds fact(key, payload) with n tuples and dim(key, attr) with
// n/10 tuples.
func testSource(n int) mapSource {
	fact := multiset.New(schema.NewRelation("fact",
		schema.Attribute{Name: "key", Type: value.KindInt},
		schema.Attribute{Name: "payload", Type: value.KindInt}))
	dim := multiset.New(schema.NewRelation("dim",
		schema.Attribute{Name: "key", Type: value.KindInt},
		schema.Attribute{Name: "attr", Type: value.KindInt}))
	for i := 0; i < n; i++ {
		fact.Add(tuple.Ints(int64(i%(n/10)), int64(i)), 1)
	}
	for i := 0; i < n/10; i++ {
		dim.Add(tuple.Ints(int64(i), int64(i*100)), 1)
	}
	return mapSource{"fact": fact, "dim": dim}
}

func mustPlan(t testing.TB, e algebra.Expr, src mapSource) *Plan {
	t.Helper()
	p, err := NewPlanner(src).Plan(e, catalogOf(src))
	if err != nil {
		t.Fatalf("plan %s: %v", e, err)
	}
	return p
}

func TestEquiColsExtraction(t *testing.T) {
	// %2 = %4 with left arity 3: join columns (1) and (0).
	l, r, resid := equiCols(scalar.Eq(1, 3), 3)
	if len(l) != 1 || l[0] != 1 || len(r) != 1 || r[0] != 0 || len(resid) != 0 {
		t.Errorf("equiCols = %v %v %v", l, r, resid)
	}
	// Reversed operand order still detected.
	l, r, resid = equiCols(scalar.Eq(3, 1), 3)
	if len(l) != 1 || l[0] != 1 || r[0] != 0 || len(resid) != 0 {
		t.Errorf("reversed equiCols = %v %v %v", l, r, resid)
	}
	// Same-side equality stays residual.
	l, r, resid = equiCols(scalar.Eq(0, 1), 3)
	if len(l) != 0 || len(resid) != 1 {
		t.Errorf("same-side equality: %v %v %v", l, r, resid)
	}
	// Non-equality and non-attribute comparisons stay residual.
	mixed := scalar.NewAnd(
		scalar.Eq(0, 4),
		scalar.NewCompare(value.CmpGt, scalar.NewAttr(2), scalar.NewConst(value.NewFloat(5))),
		scalar.NewCompare(value.CmpEq, scalar.NewAttr(1), scalar.NewConst(value.NewString("x"))),
	)
	l, r, resid = equiCols(mixed, 3)
	if len(l) != 1 || len(resid) != 2 {
		t.Errorf("mixed condition: %v %v %v", l, r, resid)
	}
}

// TestPlannerJoinStrategy checks the physical decisions: equi-joins hash with
// the smaller side as build, non-equi joins nest loops with the smaller side
// as inner, and σ over × folds into the join.
func TestPlannerJoinStrategy(t *testing.T) {
	src := testSource(1000)

	join := algebra.NewJoin(scalar.Eq(0, 2), algebra.NewRel("fact"), algebra.NewRel("dim"))
	hj, ok := mustPlan(t, join, src).Root.(*hashJoinNode)
	if !ok {
		t.Fatalf("equi join must compile to a hash join, got %T", mustPlan(t, join, src).Root)
	}
	if hj.buildLeft {
		t.Error("build side must be the smaller operand (dim, the right side)")
	}

	// Flipped operand order flips the build side; the output schema keeps the
	// operand order.
	flipped := algebra.NewJoin(scalar.Eq(0, 2), algebra.NewRel("dim"), algebra.NewRel("fact"))
	hj2 := mustPlan(t, flipped, src).Root.(*hashJoinNode)
	if !hj2.buildLeft {
		t.Error("build side must follow the smaller operand to the left")
	}

	// σ over a product is a join in disguise.
	sigma := algebra.NewSelect(scalar.Eq(0, 2),
		algebra.NewProduct(algebra.NewRel("fact"), algebra.NewRel("dim")))
	if _, ok := mustPlan(t, sigma, src).Root.(*hashJoinNode); !ok {
		t.Error("σ(E1 × E2) with an equality conjunct must compile to a hash join")
	}

	// σ over a join folds the outer condition into the join: a conjunct on
	// one operand becomes a filter below the join on that side (Example 3.1
	// of the paper), and a non-hashable conjunct over both operands survives
	// as the join residual.
	layered := algebra.NewSelect(
		scalar.NewAnd(
			scalar.NewCompare(value.CmpGt, scalar.NewAttr(1), scalar.NewConst(value.NewInt(10))),
			scalar.NewCompare(value.CmpGt, scalar.NewAttr(1), scalar.NewAttr(3))),
		join)
	hj3, ok := mustPlan(t, layered, src).Root.(*hashJoinNode)
	if !ok {
		t.Fatal("σ above a join must fold into the join")
	}
	if _, ok := hj3.left.(*filterNode); !ok {
		t.Errorf("a conjunct on the left operand must filter below the join, got %T", hj3.left)
	}
	if hj3.residual == nil {
		t.Error("non-hashable conjunct over both operands must survive as the join residual")
	}

	// A non-equi join nests loops, materialising the smaller side.
	theta := algebra.NewJoin(
		scalar.NewCompare(value.CmpLt, scalar.NewAttr(1), scalar.NewAttr(3)),
		algebra.NewRel("fact"), algebra.NewRel("dim"))
	nl, ok := mustPlan(t, theta, src).Root.(*nestedLoopNode)
	if !ok {
		t.Fatal("non-equi join must compile to nested loops")
	}
	if !nl.innerRight {
		t.Error("nested-loop inner must be the smaller operand")
	}

	// A bare product is a cross nested loop.
	prod := algebra.NewProduct(algebra.NewRel("fact"), algebra.NewRel("dim"))
	pn, ok := mustPlan(t, prod, src).Root.(*nestedLoopNode)
	if !ok || pn.cond != nil {
		t.Errorf("product must compile to a cross nested loop, got %T", mustPlan(t, prod, src).Root)
	}
}

// TestPipelineDoesNotMaterialise asserts the acceptance criterion of the
// planner split: σ/π/extπ cascades above a scan or join stream, holding no
// operator-internal state.
func TestPipelineDoesNotMaterialise(t *testing.T) {
	src := testSource(100)
	pred := scalar.NewCompare(value.CmpGe, scalar.NewAttr(0), scalar.NewConst(value.NewInt(2)))
	cascade := algebra.NewProject([]int{1},
		algebra.NewSelect(pred,
			algebra.NewExtProject([]scalar.Expr{scalar.NewAttr(0), scalar.NewAttr(1)}, nil,
				algebra.NewRel("fact"))))
	p := mustPlan(t, cascade, src)
	var st Stats
	if _, err := p.ExecuteStats(src, &st); err != nil {
		t.Fatal(err)
	}
	if st.MaterialisedTuples != 0 {
		t.Errorf("a σ/π/extπ cascade over a scan must not materialise, held %d tuples", st.MaterialisedTuples)
	}
	if st.Operators != 3 {
		t.Errorf("operators = %d, want 3", st.Operators)
	}

	// The same cascade above a hash join materialises only the join's build
	// side.
	join := algebra.NewJoin(scalar.Eq(0, 2), algebra.NewRel("fact"), algebra.NewRel("dim"))
	above := algebra.NewProject([]int{1}, algebra.NewSelect(pred, algebra.NewJoin(scalar.Eq(0, 2), algebra.NewRel("fact"), algebra.NewRel("dim"))))
	_ = join
	p2 := mustPlan(t, above, src)
	var st2 Stats
	if _, err := p2.ExecuteStats(src, &st2); err != nil {
		t.Fatal(err)
	}
	dimCard := src["dim"].Cardinality()
	if st2.MaterialisedTuples != dimCard {
		t.Errorf("only the join build side may materialise: held %d, want %d", st2.MaterialisedTuples, dimCard)
	}
}

// TestExecuteAgainstDefinitions spot-checks operator semantics through the
// planner on a tiny database.
func TestExecuteAgainstDefinitions(t *testing.T) {
	s := schema.Anonymous(schema.Attribute{Name: "x", Type: value.KindInt})
	a := multiset.FromTuples(s, tuple.Ints(1), tuple.Ints(1), tuple.Ints(2))
	b := multiset.FromTuples(s, tuple.Ints(1), tuple.Ints(3))
	src := mapSource{"a": a, "b": b}
	ra, rb := algebra.NewRel("a"), algebra.NewRel("b")

	cases := []struct {
		name string
		expr algebra.Expr
		tup  tuple.Tuple
		mult uint64
		card uint64
	}{
		{"union", algebra.NewUnion(ra, rb), tuple.Ints(1), 3, 5},
		{"difference", algebra.NewDifference(ra, rb), tuple.Ints(1), 1, 2},
		{"intersect", algebra.NewIntersect(ra, rb), tuple.Ints(1), 1, 1},
		{"unique", algebra.NewUnique(ra), tuple.Ints(1), 1, 2},
		{"product", algebra.NewProduct(ra, rb), tuple.Ints(1, 1), 2, 6},
	}
	for _, c := range cases {
		p := mustPlan(t, c.expr, src)
		out, err := p.Execute(src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if out.Multiplicity(c.tup) != c.mult || out.Cardinality() != c.card {
			t.Errorf("%s = %v, want multiplicity %d of %v and cardinality %d",
				c.name, out, c.mult, c.tup, c.card)
		}
	}
}

// TestPlanTimeValidation checks that typing errors surface at plan time.
func TestPlanTimeValidation(t *testing.T) {
	src := testSource(100)
	cat := catalogOf(src)
	bad := []algebra.Expr{
		algebra.NewRel("missing"),
		algebra.NewProject([]int{9}, algebra.NewRel("fact")),
		algebra.NewProject(nil, algebra.NewRel("fact")),
		algebra.NewUnion(algebra.NewRel("fact"), algebra.NewProject([]int{0}, algebra.NewRel("dim"))),
		algebra.NewTClose(algebra.NewProject([]int{0}, algebra.NewRel("fact"))),
		algebra.NewGroupBy([]int{7}, algebra.AggCount, 0, algebra.NewRel("fact")),
		// Nil conditions must error everywhere, including the σ(×)/σ(⋈)
		// fold paths, instead of silently compiling to a cross product.
		algebra.Select{Input: algebra.NewRel("fact")},
		algebra.Select{Input: algebra.NewProduct(algebra.NewRel("fact"), algebra.NewRel("dim"))},
		algebra.Select{Input: algebra.NewJoin(scalar.Eq(0, 2), algebra.NewRel("fact"), algebra.NewRel("dim"))},
		algebra.NewSelect(scalar.True{}, algebra.Join{Left: algebra.NewRel("fact"), Right: algebra.NewRel("dim")}),
		algebra.Join{Left: algebra.NewRel("fact"), Right: algebra.NewRel("dim")},
	}
	for _, e := range bad {
		if _, err := NewPlanner(nil).Plan(e, cat); err == nil {
			t.Errorf("expected plan error for %s", e)
		}
	}
}

// TestPlanString pins the explain rendering of a representative plan.
func TestPlanString(t *testing.T) {
	src := testSource(1000)
	expr := algebra.NewProject([]int{1},
		algebra.NewSelect(
			scalar.NewAnd(
				scalar.NewCompare(value.CmpGt, scalar.NewAttr(3), scalar.NewConst(value.NewInt(10))),
				scalar.NewCompare(value.CmpGt, scalar.NewAttr(1), scalar.NewAttr(3))),
			algebra.NewJoin(scalar.Eq(0, 2), algebra.NewRel("fact"), algebra.NewRel("dim"))))
	got := mustPlan(t, expr, src).String()
	want := strings.Join([]string{
		"Project [%2]  (est~2500 rows)",
		"└─ HashJoin [%1 = %3] build=right residual=[%2 > %4]  (est~2500 rows)",
		"   ├─ Scan fact  (est=1000 rows)",
		"   └─ Filter [%2 > 10]  (est~25 rows)",
		"      └─ Scan dim  (est=100 rows)",
	}, "\n")
	if got != want {
		t.Errorf("plan rendering:\n%s\nwant:\n%s", got, want)
	}
}

// TestEmptyBuildSkipsProbe checks the hash join's empty-side short circuit:
// the probe side never runs when the build side is empty.
func TestEmptyBuildSkipsProbe(t *testing.T) {
	src := testSource(100)
	src["empty"] = multiset.New(src["dim"].Schema())
	join := algebra.NewJoin(scalar.Eq(0, 2), algebra.NewRel("fact"), algebra.NewRel("empty"))
	p := mustPlan(t, join, src)
	var st Stats
	out, err := p.ExecuteStats(src, &st)
	if err != nil {
		t.Fatal(err)
	}
	if !out.IsEmpty() {
		t.Error("join against empty must be empty")
	}
	if st.IntermediateTuples != 0 {
		t.Errorf("no operator may emit against an empty build side, emitted %d", st.IntermediateTuples)
	}
}
