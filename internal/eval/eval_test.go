package eval

import (
	"errors"
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

// beerSource builds the paper's running beer/brewery example database.  The
// data is chosen so that Example 3.1 produces duplicates: two Dutch breweries
// brew a beer called "pils".
func beerSource() MapSource {
	beer := multiset.New(schema.NewRelation("beer",
		schema.Attribute{Name: "name", Type: value.KindString},
		schema.Attribute{Name: "brewery", Type: value.KindString},
		schema.Attribute{Name: "alcperc", Type: value.KindFloat},
	))
	add := func(r *multiset.Relation, vals ...value.Value) { r.Add(tuple.New(vals...), 1) }
	add(beer, value.NewString("pils"), value.NewString("guineken"), value.NewFloat(5.0))
	add(beer, value.NewString("pils"), value.NewString("brolsch"), value.NewFloat(5.2))
	add(beer, value.NewString("bock"), value.NewString("guineken"), value.NewFloat(6.5))
	add(beer, value.NewString("stout"), value.NewString("guinness"), value.NewFloat(4.2))
	add(beer, value.NewString("tripel"), value.NewString("westmalle"), value.NewFloat(9.5))

	brewery := multiset.New(schema.NewRelation("brewery",
		schema.Attribute{Name: "name", Type: value.KindString},
		schema.Attribute{Name: "city", Type: value.KindString},
		schema.Attribute{Name: "country", Type: value.KindString},
	))
	add(brewery, value.NewString("guineken"), value.NewString("amsterdam"), value.NewString("netherlands"))
	add(brewery, value.NewString("brolsch"), value.NewString("enschede"), value.NewString("netherlands"))
	add(brewery, value.NewString("guinness"), value.NewString("dublin"), value.NewString("ireland"))
	add(brewery, value.NewString("westmalle"), value.NewString("malle"), value.NewString("belgium"))

	return MapSource{"beer": beer, "brewery": brewery}
}

// joinBeerBrewery is beer ⋈_{beer.brewery = brewery.name} brewery.
func joinBeerBrewery() algebra.Expr {
	return algebra.NewJoin(scalar.Eq(1, 3), algebra.NewRel("beer"), algebra.NewRel("brewery"))
}

// bothEvaluators runs the expression through the oracle and Engine and checks
// they agree; it returns the Engine result.
func bothEvaluators(t *testing.T, e algebra.Expr, src Source) *multiset.Relation {
	t.Helper()
	ref, err := oracle.Eval(e, src)
	if err != nil {
		t.Fatalf("oracle eval: %v", err)
	}
	eng := &Engine{}
	phys, err := eng.Eval(e, src)
	if err != nil {
		t.Fatalf("physical eval: %v", err)
	}
	if err := ref.Check(phys); err != nil {
		t.Fatalf("evaluators disagree on %s: %v", e, err)
	}
	return phys
}

func TestMapSource(t *testing.T) {
	src := beerSource()
	if _, ok := src.Relation("BEER"); !ok {
		t.Error("case-insensitive source lookup")
	}
	if _, ok := src.Relation("wine"); ok {
		t.Error("unknown relation must miss")
	}
	cat := CatalogOf(src)
	if _, ok := cat.RelationSchema("brewery"); !ok {
		t.Error("CatalogOf lookup")
	}
	if _, ok := cat.RelationSchema("wine"); ok {
		t.Error("CatalogOf miss")
	}
}

func TestEvalRelAndLiteral(t *testing.T) {
	src := beerSource()
	r := bothEvaluators(t, algebra.NewRel("beer"), src)
	if r.Cardinality() != 5 {
		t.Errorf("beer cardinality = %d", r.Cardinality())
	}
	// Leaf evaluation clones: mutating the result must not change the source.
	r.Add(tuple.New(value.NewString("x"), value.NewString("y"), value.NewFloat(1)), 1)
	orig, _ := src.Relation("beer")
	if orig.Cardinality() != 5 {
		t.Error("evaluating a Rel must clone the stored relation")
	}

	lit := algebra.Literal{
		Rel: schema.Anonymous(schema.Attribute{Name: "n", Type: value.KindInt}),
		Rows: [][]value.Value{
			{value.NewInt(1)}, {value.NewInt(1)}, {value.NewInt(2)},
		},
	}
	l := bothEvaluators(t, lit, src)
	if l.Multiplicity(tuple.Ints(1)) != 2 || l.Multiplicity(tuple.Ints(2)) != 1 {
		t.Errorf("literal = %v", l)
	}

	if _, err := oracle.Eval(algebra.NewRel("wine"), src); err == nil {
		t.Error("unknown relation must fail")
	}
	if _, err := (&Engine{}).Eval(algebra.NewRel("wine"), src); err == nil {
		t.Error("unknown relation must fail (engine)")
	}
}

func TestExample31BeerQuery(t *testing.T) {
	// π_name σ_{country='netherlands'} (beer ⋈ brewery): the multi-set of all
	// names of beers brewed in the Netherlands.  Duplicates are preserved:
	// "pils" is brewed by two Dutch breweries, so it appears twice.
	src := beerSource()
	expr := algebra.NewProject([]int{0},
		algebra.NewSelect(
			scalar.NewCompare(value.CmpEq, scalar.NewAttr(5), scalar.NewConst(value.NewString("netherlands"))),
			joinBeerBrewery()))
	res := bothEvaluators(t, expr, src)
	if res.Cardinality() != 3 {
		t.Fatalf("Example 3.1 cardinality = %d, want 3", res.Cardinality())
	}
	pils := tuple.New(value.NewString("pils"))
	bock := tuple.New(value.NewString("bock"))
	if res.Multiplicity(pils) != 2 {
		t.Errorf("pils multiplicity = %d, want 2 (bag semantics must keep duplicates)", res.Multiplicity(pils))
	}
	if res.Multiplicity(bock) != 1 {
		t.Errorf("bock multiplicity = %d, want 1", res.Multiplicity(bock))
	}
}

func TestExample32AverageByCountry(t *testing.T) {
	// Γ_{(country),AVG,alcperc}(beer ⋈ brewery), with and without the inner
	// projection π_{alcperc,country}.  Under bag semantics both forms agree.
	src := beerSource()
	direct := algebra.NewGroupBy([]int{5}, algebra.AggAvg, 2, joinBeerBrewery())
	pushed := algebra.NewGroupBy([]int{1}, algebra.AggAvg, 0,
		algebra.NewProject([]int{2, 5}, joinBeerBrewery()))

	d := bothEvaluators(t, direct, src)
	p := bothEvaluators(t, pushed, src)
	if !d.Equal(p) {
		t.Fatalf("projection push-in changed the result:\n%s\n%s", d, p)
	}
	// Netherlands average over {5.0, 5.2, 6.5} = 5.5666...
	var nlAvg float64
	found := false
	d.Each(func(tp tuple.Tuple, _ uint64) bool {
		if tp.At(0).Str() == "netherlands" {
			nlAvg = tp.At(1).Float()
			found = true
		}
		return true
	})
	if !found || nlAvg < 5.56 || nlAvg > 5.57 {
		t.Errorf("netherlands AVG = %v (found=%v), want ≈5.5667", nlAvg, found)
	}
	if d.Cardinality() != 3 {
		t.Errorf("one row per country expected, got %d", d.Cardinality())
	}
}

func TestTheorem31IntersectAndJoin(t *testing.T) {
	src := beerSource()
	dutch := algebra.NewSelect(
		scalar.NewCompare(value.CmpEq, scalar.NewAttr(1), scalar.NewConst(value.NewString("guineken"))),
		algebra.NewRel("beer"))
	strong := algebra.NewSelect(
		scalar.NewCompare(value.CmpGe, scalar.NewAttr(2), scalar.NewConst(value.NewFloat(5))),
		algebra.NewRel("beer"))

	// E1 ∩ E2 = E1 − (E1 − E2).
	native := bothEvaluators(t, algebra.NewIntersect(dutch, strong), src)
	derived := bothEvaluators(t, algebra.NewDifference(dutch, algebra.NewDifference(dutch, strong)), src)
	if !native.Equal(derived) {
		t.Errorf("Theorem 3.1 (intersection) violated:\n%s\n%s", native, derived)
	}

	// E1 ⋈φ E2 = σφ(E1 × E2).
	join := bothEvaluators(t, joinBeerBrewery(), src)
	sigma := bothEvaluators(t,
		algebra.NewSelect(scalar.Eq(1, 3), algebra.NewProduct(algebra.NewRel("beer"), algebra.NewRel("brewery"))), src)
	if !join.Equal(sigma) {
		t.Errorf("Theorem 3.1 (join) violated:\n%s\n%s", join, sigma)
	}
	if join.Cardinality() != 5 {
		t.Errorf("every beer joins exactly one brewery, got %d", join.Cardinality())
	}
}

func TestSetOperators(t *testing.T) {
	s := schema.Anonymous(schema.Attribute{Name: "x", Type: value.KindInt})
	a := multiset.FromTuples(s, tuple.Ints(1), tuple.Ints(1), tuple.Ints(2))
	b := multiset.FromTuples(s, tuple.Ints(1), tuple.Ints(3))
	src := MapSource{"a": a, "b": b}
	ra, rb := algebra.NewRel("a"), algebra.NewRel("b")

	u := bothEvaluators(t, algebra.NewUnion(ra, rb), src)
	if u.Multiplicity(tuple.Ints(1)) != 3 || u.Cardinality() != 5 {
		t.Errorf("union = %v", u)
	}
	d := bothEvaluators(t, algebra.NewDifference(ra, rb), src)
	if d.Multiplicity(tuple.Ints(1)) != 1 || d.Contains(tuple.Ints(3)) {
		t.Errorf("difference = %v", d)
	}
	i := bothEvaluators(t, algebra.NewIntersect(ra, rb), src)
	if i.Multiplicity(tuple.Ints(1)) != 1 || i.Cardinality() != 1 {
		t.Errorf("intersection = %v", i)
	}
	p := bothEvaluators(t, algebra.NewProduct(ra, rb), src)
	if p.Cardinality() != 6 || p.Multiplicity(tuple.Ints(1, 1)) != 2 {
		t.Errorf("product = %v", p)
	}
	// Incompatible schemas surface as errors from both evaluators.
	two := multiset.FromTuples(schema.Anonymous(
		schema.Attribute{Name: "x", Type: value.KindInt},
		schema.Attribute{Name: "y", Type: value.KindInt}), tuple.Ints(1, 2))
	src2 := MapSource{"a": a, "c": two}
	if _, err := oracle.Eval(algebra.NewUnion(algebra.NewRel("a"), algebra.NewRel("c")), src2); err == nil {
		t.Error("incompatible union must fail (oracle)")
	}
	if _, err := (&Engine{}).Eval(algebra.NewUnion(algebra.NewRel("a"), algebra.NewRel("c")), src2); err == nil {
		t.Error("incompatible union must fail (engine)")
	}
	if _, err := (&Engine{}).Eval(algebra.NewDifference(algebra.NewRel("a"), algebra.NewRel("c")), src2); err == nil {
		t.Error("incompatible difference must fail (engine)")
	}
	if _, err := (&Engine{}).Eval(algebra.NewIntersect(algebra.NewRel("a"), algebra.NewRel("c")), src2); err == nil {
		t.Error("incompatible intersection must fail (engine)")
	}
}

func TestExtendedProjection(t *testing.T) {
	src := beerSource()
	// (name, alcperc * 1.1)
	expr := algebra.NewExtProject([]scalar.Expr{
		scalar.NewAttr(0),
		scalar.NewArith(value.OpMul, scalar.NewAttr(2), scalar.NewConst(value.NewFloat(2))),
	}, []string{"name", "double_alc"}, algebra.NewRel("beer"))
	res := bothEvaluators(t, expr, src)
	if res.Cardinality() != 5 {
		t.Errorf("extended projection must preserve cardinality, got %d", res.Cardinality())
	}
	want := tuple.New(value.NewString("bock"), value.NewFloat(13))
	if res.Multiplicity(want) != 1 {
		t.Errorf("computed attribute wrong: %v", res)
	}
	// Scalar errors propagate from both evaluators.
	bad := algebra.NewExtProject([]scalar.Expr{
		scalar.NewArith(value.OpMul, scalar.NewAttr(0), scalar.NewConst(value.NewFloat(2))),
	}, nil, algebra.NewRel("beer"))
	if _, err := oracle.Eval(bad, src); err == nil {
		t.Error("type error must propagate (oracle)")
	}
	if _, err := (&Engine{}).Eval(bad, src); err == nil {
		t.Error("type error must propagate (engine)")
	}
}

func TestUniqueOperator(t *testing.T) {
	src := beerSource()
	names := algebra.NewProject([]int{1}, algebra.NewRel("beer"))
	dedup := algebra.NewUnique(names)
	raw := bothEvaluators(t, names, src)
	unique := bothEvaluators(t, dedup, src)
	if raw.Cardinality() != 5 {
		t.Errorf("raw brewery projection = %d", raw.Cardinality())
	}
	if unique.Cardinality() != 4 {
		t.Errorf("unique brewery projection = %d, want 4", unique.Cardinality())
	}
	unique.Each(func(_ tuple.Tuple, c uint64) bool {
		if c != 1 {
			t.Errorf("unique result has multiplicity %d", c)
		}
		return true
	})
}

func TestGroupByVariants(t *testing.T) {
	src := beerSource()
	// CNT per brewery.
	cnt := bothEvaluators(t, algebra.NewGroupBy([]int{1}, algebra.AggCount, 0, algebra.NewRel("beer")), src)
	if cnt.Multiplicity(tuple.New(value.NewString("guineken"), value.NewInt(2))) != 1 {
		t.Errorf("CNT per brewery = %v", cnt)
	}
	// SUM of alcperc per brewery.
	sum := bothEvaluators(t, algebra.NewGroupBy([]int{1}, algebra.AggSum, 2, algebra.NewRel("beer")), src)
	if sum.Multiplicity(tuple.New(value.NewString("guineken"), value.NewFloat(11.5))) != 1 {
		t.Errorf("SUM per brewery = %v", sum)
	}
	// MIN / MAX over all beers (empty grouping list → single tuple).
	min := bothEvaluators(t, algebra.NewGroupBy(nil, algebra.AggMin, 2, algebra.NewRel("beer")), src)
	if min.Cardinality() != 1 || !min.Contains(tuple.New(value.NewFloat(4.2))) {
		t.Errorf("global MIN = %v", min)
	}
	max := bothEvaluators(t, algebra.NewGroupBy(nil, algebra.AggMax, 2, algebra.NewRel("beer")), src)
	if !max.Contains(tuple.New(value.NewFloat(9.5))) {
		t.Errorf("global MAX = %v", max)
	}
	// Global CNT on an empty relation yields 0; AVG is undefined.
	empty := MapSource{"e": multiset.New(schema.Anonymous(schema.Attribute{Name: "x", Type: value.KindInt}))}
	zero := bothEvaluators(t, algebra.NewGroupBy(nil, algebra.AggCount, 0, algebra.NewRel("e")), empty)
	if !zero.Contains(tuple.Ints(0)) {
		t.Errorf("CNT over empty = %v", zero)
	}
	if _, err := oracle.Eval(algebra.NewGroupBy(nil, algebra.AggAvg, 0, algebra.NewRel("e")), empty); !errors.Is(err, plan.ErrEmptyAggregate) {
		t.Errorf("AVG over empty must be undefined, got %v", err)
	}
	if _, err := (&Engine{}).Eval(algebra.NewGroupBy(nil, algebra.AggMin, 0, algebra.NewRel("e")), empty); !errors.Is(err, plan.ErrEmptyAggregate) {
		t.Errorf("MIN over empty must be undefined, got %v", err)
	}
	// MIN over strings works (alphabetic order).
	minName := bothEvaluators(t, algebra.NewGroupBy(nil, algebra.AggMin, 0, algebra.NewRel("beer")), src)
	if !minName.Contains(tuple.New(value.NewString("bock"))) {
		t.Errorf("MIN over names = %v", minName)
	}
	// SUM over integer attributes stays integral.
	ints := MapSource{"n": multiset.FromTuples(
		schema.Anonymous(schema.Attribute{Name: "v", Type: value.KindInt}),
		tuple.Ints(1), tuple.Ints(2), tuple.Ints(2))}
	isum := bothEvaluators(t, algebra.NewGroupBy(nil, algebra.AggSum, 0, algebra.NewRel("n")), ints)
	if !isum.Contains(tuple.Ints(5)) {
		t.Errorf("integer SUM = %v", isum)
	}
	// Aggregation over a non-numeric attribute with SUM fails at eval time too.
	if _, err := oracle.Eval(algebra.NewGroupBy(nil, algebra.AggSum, 0, algebra.NewRel("beer")), src); err == nil {
		t.Error("SUM over strings must fail")
	}
}

// TestGroupByMultiAggregate checks the multi-aggregate Γ on both evaluators:
// several aggregates computed in one pass equal the α-join of their
// single-aggregate runs, grouped and globally.
func TestGroupByMultiAggregate(t *testing.T) {
	src := beerSource()
	// CNT + SUM + MIN + MAX of alcperc per brewery, one pass.
	multi := bothEvaluators(t, algebra.NewGroupByMulti([]int{1}, []algebra.AggSpec{
		{Fn: algebra.AggCount, Col: 0}, {Fn: algebra.AggSum, Col: 2},
		{Fn: algebra.AggMin, Col: 2}, {Fn: algebra.AggMax, Col: 2},
	}, algebra.NewRel("beer")), src)
	if multi.Multiplicity(tuple.New(
		value.NewString("guineken"), value.NewInt(2), value.NewFloat(11.5),
		value.NewFloat(5.0), value.NewFloat(6.5))) != 1 {
		t.Errorf("multi-aggregate per brewery = %v", multi)
	}
	// Each column equals the corresponding single-aggregate run.
	cnt := bothEvaluators(t, algebra.NewGroupBy([]int{1}, algebra.AggCount, 0, algebra.NewRel("beer")), src)
	fromMulti := bothEvaluators(t, algebra.NewProject([]int{0, 1}, algebra.NewGroupByMulti([]int{1}, []algebra.AggSpec{
		{Fn: algebra.AggCount, Col: 0}, {Fn: algebra.AggSum, Col: 2},
	}, algebra.NewRel("beer"))), src)
	if !cnt.Equal(fromMulti) {
		t.Errorf("multi-aggregate CNT column differs:\nsingle: %s\nmulti:  %s", cnt, fromMulti)
	}
	// Global multi-aggregate: one tuple with every aggregate.
	global := bothEvaluators(t, algebra.NewGroupByMulti(nil, []algebra.AggSpec{
		{Fn: algebra.AggCount, Col: 0}, {Fn: algebra.AggMin, Col: 2}, {Fn: algebra.AggMax, Col: 2},
	}, algebra.NewRel("beer")), src)
	if global.Cardinality() != 1 || !global.Contains(tuple.New(
		value.NewInt(5), value.NewFloat(4.2), value.NewFloat(9.5))) {
		t.Errorf("global multi-aggregate = %v", global)
	}
	// One undefined member fails the whole application (Definition 3.3).
	empty := MapSource{"e": multiset.New(schema.Anonymous(schema.Attribute{Name: "x", Type: value.KindInt}))}
	multiEmpty := algebra.NewGroupByMulti(nil, []algebra.AggSpec{
		{Fn: algebra.AggCount, Col: 0}, {Fn: algebra.AggMin, Col: 0},
	}, algebra.NewRel("e"))
	if _, err := oracle.Eval(multiEmpty, empty); !errors.Is(err, plan.ErrEmptyAggregate) {
		t.Errorf("oracle: MIN member over empty input = %v, want ErrEmptyAggregate", err)
	}
	if _, err := (&Engine{}).Eval(multiEmpty, empty); !errors.Is(err, plan.ErrEmptyAggregate) {
		t.Errorf("engine: MIN member over empty input = %v, want ErrEmptyAggregate", err)
	}
}

func TestJoinVariants(t *testing.T) {
	src := beerSource()
	// Non-equi join: beers stronger than other beers (self product).
	stronger := algebra.NewJoin(
		scalar.NewCompare(value.CmpGt, scalar.NewAttr(2), scalar.NewAttr(5)),
		algebra.NewRel("beer"), algebra.NewRel("beer"))
	res := bothEvaluators(t, stronger, src)
	// 5 beers with distinct strengths → 10 ordered pairs.
	if res.Cardinality() != 10 {
		t.Errorf("non-equi self join = %d, want 10", res.Cardinality())
	}
	// Equi-join with residual condition: same country and stricly stronger.
	resid := algebra.NewJoin(
		scalar.NewAnd(scalar.Eq(1, 3), scalar.NewCompare(value.CmpGt, scalar.NewAttr(2), scalar.NewConst(value.NewFloat(5)))),
		algebra.NewRel("beer"), algebra.NewRel("brewery"))
	r2 := bothEvaluators(t, resid, src)
	if r2.Cardinality() != 3 {
		t.Errorf("equi join with residual = %d, want 3", r2.Cardinality())
	}
	// Join with an always-false condition is empty.
	none := bothEvaluators(t, algebra.NewJoin(scalar.False{}, algebra.NewRel("beer"), algebra.NewRel("brewery")), src)
	if !none.IsEmpty() {
		t.Error("join under false must be empty")
	}
	// Condition evaluation errors propagate (engine nested-loop path).
	typeErr := algebra.NewJoin(
		scalar.NewCompare(value.CmpGt, scalar.NewAttr(0), scalar.NewAttr(2)),
		algebra.NewRel("beer"), algebra.NewRel("brewery"))
	if _, err := (&Engine{}).Eval(typeErr, src); err == nil {
		t.Error("string vs float comparison must fail during the join")
	}
	if _, err := oracle.Eval(typeErr, src); err == nil {
		t.Error("string vs float comparison must fail during the join (oracle)")
	}
}

func TestSelectionFusedIntoJoin(t *testing.T) {
	src := beerSource()
	eng := &Engine{CollectStats: true}
	// σ_{%2=%4}(beer × brewery) must not materialise the 5×4 product.
	fused := algebra.NewSelect(scalar.Eq(1, 3), algebra.NewProduct(algebra.NewRel("beer"), algebra.NewRel("brewery")))
	res, err := eng.Eval(fused, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cardinality() != 5 {
		t.Errorf("fused join = %d", res.Cardinality())
	}
	if eng.Stats.PeakRelationTuples > 5 {
		t.Errorf("selection over product should be fused into a hash join; peak intermediate = %d", eng.Stats.PeakRelationTuples)
	}
	// The same expression through the naive product materialises 20 tuples.
	eng.Reset()
	prod := algebra.NewProduct(algebra.NewRel("beer"), algebra.NewRel("brewery"))
	if _, err := eng.Eval(prod, src); err != nil {
		t.Fatal(err)
	}
	if eng.Stats.PeakRelationTuples != 20 {
		t.Errorf("bare product should materialise 20 tuples, got %d", eng.Stats.PeakRelationTuples)
	}
}

func TestTransitiveClosure(t *testing.T) {
	edge := schema.NewRelation("edge",
		schema.Attribute{Name: "src", Type: value.KindInt},
		schema.Attribute{Name: "dst", Type: value.KindInt},
	)
	// Chain 1→2→3→4 plus a duplicate edge and a cycle 5→6→5.
	r := multiset.FromTuples(edge,
		tuple.Ints(1, 2), tuple.Ints(1, 2), tuple.Ints(2, 3), tuple.Ints(3, 4),
		tuple.Ints(5, 6), tuple.Ints(6, 5),
	)
	src := MapSource{"edge": r}
	res := bothEvaluators(t, algebra.NewTClose(algebra.NewRel("edge")), src)
	wantPairs := [][2]int64{
		{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4},
		{5, 6}, {6, 5}, {5, 5}, {6, 6},
	}
	for _, p := range wantPairs {
		if res.Multiplicity(tuple.Ints(p[0], p[1])) != 1 {
			t.Errorf("closure missing or duplicated pair %v: %v", p, res)
		}
	}
	if res.Cardinality() != uint64(len(wantPairs)) {
		t.Errorf("closure cardinality = %d, want %d", res.Cardinality(), len(wantPairs))
	}
	// Closure of the empty relation is empty.
	src2 := MapSource{"edge": multiset.New(edge)}
	if got := bothEvaluators(t, algebra.NewTClose(algebra.NewRel("edge")), src2); !got.IsEmpty() {
		t.Error("closure of the empty relation must be empty")
	}
}

func TestErrorPropagationThroughOperators(t *testing.T) {
	src := beerSource()
	missing := algebra.NewRel("wine")
	exprs := []algebra.Expr{
		algebra.NewUnion(missing, algebra.NewRel("beer")),
		algebra.NewUnion(algebra.NewRel("beer"), missing),
		algebra.NewDifference(missing, algebra.NewRel("beer")),
		algebra.NewIntersect(missing, algebra.NewRel("beer")),
		algebra.NewProduct(missing, algebra.NewRel("beer")),
		algebra.NewProduct(algebra.NewRel("beer"), missing),
		algebra.NewSelect(scalar.True{}, missing),
		algebra.NewProject([]int{0}, missing),
		algebra.NewJoin(scalar.Eq(0, 3), missing, algebra.NewRel("brewery")),
		algebra.NewJoin(scalar.Eq(0, 3), algebra.NewRel("beer"), missing),
		algebra.NewExtProject([]scalar.Expr{scalar.NewAttr(0)}, nil, missing),
		algebra.NewUnique(missing),
		algebra.NewGroupBy([]int{0}, algebra.AggCount, 0, missing),
		algebra.NewTClose(missing),
	}
	for _, e := range exprs {
		if _, err := oracle.Eval(e, src); err == nil {
			t.Errorf("oracle: expected error for %s", e)
		}
		if _, err := (&Engine{}).Eval(e, src); err == nil {
			t.Errorf("engine: expected error for %s", e)
		}
	}
	// Selection with an erroring predicate.
	sel := algebra.NewSelect(scalar.NewCompare(value.CmpGt, scalar.NewAttr(0), scalar.NewAttr(2)), algebra.NewRel("beer"))
	if _, err := oracle.Eval(sel, src); err == nil {
		t.Error("predicate type errors must propagate (oracle)")
	}
	if _, err := (&Engine{}).Eval(sel, src); err == nil {
		t.Error("predicate type errors must propagate (engine)")
	}
	// Projection out of range.
	proj := algebra.NewProject([]int{9}, algebra.NewRel("beer"))
	if _, err := oracle.Eval(proj, src); err == nil {
		t.Error("projection range errors must propagate (oracle)")
	}
	if _, err := (&Engine{}).Eval(proj, src); err == nil {
		t.Error("projection range errors must propagate (engine)")
	}
	// Bad literal.
	badLit := algebra.Literal{
		Rel:  schema.Anonymous(schema.Attribute{Name: "x", Type: value.KindInt}),
		Rows: [][]value.Value{{value.NewString("oops")}},
	}
	if _, err := oracle.Eval(badLit, src); err == nil {
		t.Error("bad literal must fail")
	}
	if _, err := (&Engine{}).Eval(badLit, src); err == nil {
		t.Error("bad literal must fail (engine)")
	}
}

func TestEngineStats(t *testing.T) {
	src := beerSource()
	eng := &Engine{CollectStats: true}
	if _, err := eng.Eval(algebra.NewProject([]int{0}, joinBeerBrewery()), src); err != nil {
		t.Fatal(err)
	}
	if eng.Stats.Operators != 2 {
		t.Errorf("operators = %d, want 2 (join, project)", eng.Stats.Operators)
	}
	if eng.Stats.IntermediateTuples != 10 {
		t.Errorf("intermediate tuples = %d, want 10 (5 join + 5 project)", eng.Stats.IntermediateTuples)
	}
	eng.Reset()
	if eng.Stats.Operators != 0 || eng.Stats.IntermediateTuples != 0 || eng.Stats.PeakRelationTuples != 0 {
		t.Error("Reset must clear stats")
	}
	// Stats disabled: nothing recorded.
	quiet := &Engine{}
	if _, err := quiet.Eval(joinBeerBrewery(), src); err != nil {
		t.Fatal(err)
	}
	if quiet.Stats.Operators != 0 {
		t.Error("stats must not be collected unless enabled")
	}
}

func TestUnsupportedExpression(t *testing.T) {
	var bogus algebra.Expr // nil interface triggers the default branch safely?
	// A nil expression is not a valid input; both evaluators must return an
	// error rather than panic.  Use a typed nil via an anonymous implementation.
	bogus = fakeExpr{}
	if _, err := oracle.Eval(bogus, beerSource()); err == nil {
		t.Error("unsupported expression must fail (oracle)")
	}
	if _, err := (&Engine{}).Eval(bogus, beerSource()); err == nil {
		t.Error("unsupported expression must fail (engine)")
	}
}

type fakeExpr struct{}

func (fakeExpr) Schema(algebra.Catalog) (schema.Relation, error) { return schema.Relation{}, nil }
func (fakeExpr) Children() []algebra.Expr                        { return nil }
func (fakeExpr) String() string                                  { return "fake" }
