package oracle

import (
	"errors"
	"math"
	"strings"
	"testing"

	"mra/internal/algebra"
	"mra/internal/multiset"
	"mra/internal/plan"
	"mra/internal/scalar"
	"mra/internal/schema"
	"mra/internal/tuple"
	"mra/internal/value"
)

// mapSource is a Source over a map of relations.
type mapSource map[string]*multiset.Relation

func (m mapSource) Relation(name string) (*multiset.Relation, bool) {
	r, ok := m[name]
	return r, ok
}

func intSchema(n int) schema.Relation {
	attrs := make([]schema.Attribute, n)
	for i := range attrs {
		attrs[i] = schema.Attribute{Name: string(rune('a' + i)), Type: value.KindInt}
	}
	return schema.Anonymous(attrs...)
}

func mustEval(t *testing.T, e algebra.Expr, src Source) Bag {
	t.Helper()
	b, err := Eval(e, src)
	if err != nil {
		t.Fatalf("%s: %v", e, err)
	}
	return b
}

// example32Source builds a small beer database where the set-based and bag
// based aggregates demonstrably diverge: two Dutch beers share the same
// alcohol percentage.
func example32Source() mapSource {
	beer := multiset.New(schema.NewRelation("beer",
		schema.Attribute{Name: "name", Type: value.KindString},
		schema.Attribute{Name: "brewery", Type: value.KindString},
		schema.Attribute{Name: "alcperc", Type: value.KindFloat},
	))
	add := func(r *multiset.Relation, vals ...value.Value) { r.Add(tuple.New(vals...), 1) }
	add(beer, value.NewString("pils"), value.NewString("guineken"), value.NewFloat(5.0))
	add(beer, value.NewString("blond"), value.NewString("brolsch"), value.NewFloat(5.0)) // duplicate alcperc
	add(beer, value.NewString("bock"), value.NewString("guineken"), value.NewFloat(6.5))

	brewery := multiset.New(schema.NewRelation("brewery",
		schema.Attribute{Name: "name", Type: value.KindString},
		schema.Attribute{Name: "city", Type: value.KindString},
		schema.Attribute{Name: "country", Type: value.KindString},
	))
	add(brewery, value.NewString("guineken"), value.NewString("amsterdam"), value.NewString("netherlands"))
	add(brewery, value.NewString("brolsch"), value.NewString("enschede"), value.NewString("netherlands"))
	return mapSource{"beer": beer, "brewery": brewery}
}

func joinBeerBrewery() algebra.Expr {
	return algebra.NewJoin(scalar.Eq(1, 3), algebra.NewRel("beer"), algebra.NewRel("brewery"))
}

func TestSetSemanticsDeduplicates(t *testing.T) {
	s := schema.Anonymous(schema.Attribute{Name: "x", Type: value.KindInt})
	r := multiset.FromTuples(s, tuple.Ints(1), tuple.Ints(1), tuple.Ints(2))
	src := mapSource{"r": r}
	out := mustEval(t, SetForm(algebra.NewRel("r")), src)
	if out.Cardinality() != 2 || out.Multiplicity(tuple.Ints(1)) != 1 {
		t.Errorf("set semantics must deduplicate base relations: %v", out)
	}
	// Union is a set union.
	u := mustEval(t, SetForm(algebra.NewUnion(algebra.NewRel("r"), algebra.NewRel("r"))), src)
	if u.Cardinality() != 2 {
		t.Errorf("set union must deduplicate: %v", u)
	}
	// δ is the identity under set semantics.
	d := mustEval(t, SetForm(algebra.NewUnique(algebra.NewRel("r"))), src)
	if !d.Equal(out) {
		t.Error("unique must be a no-op under set semantics")
	}
}

func TestExample32SetSemanticsCorruptsAggregate(t *testing.T) {
	src := example32Source()
	// Bag semantics: both plans agree (AVG over {5.0, 5.0, 6.5} = 5.5).
	direct := algebra.NewGroupBy([]int{5}, algebra.AggAvg, 2, joinBeerBrewery())
	pushed := algebra.NewGroupBy([]int{1}, algebra.AggAvg, 0,
		algebra.NewProject([]int{2, 5}, joinBeerBrewery()))

	bagDirect := mustEval(t, direct, src)
	bagPushed := mustEval(t, pushed, src)
	if !bagDirect.Equal(bagPushed) {
		t.Fatal("bag semantics: projection push-in must preserve the aggregate")
	}
	wantAvg := (5.0 + 5.0 + 6.5) / 3
	assertAvg := func(r Bag, want float64, label string) {
		t.Helper()
		found := false
		r.Each(func(vals []value.Value, _ uint64) bool {
			if vals[0].Str() == "netherlands" {
				got := vals[1].Float()
				if got < want-1e-9 || got > want+1e-9 {
					t.Errorf("%s: AVG = %v, want %v", label, got, want)
				}
				found = true
			}
			return true
		})
		if !found {
			t.Errorf("%s: no netherlands group", label)
		}
	}
	assertAvg(bagDirect, wantAvg, "bag direct")

	// Set semantics: the pushed-in projection collapses the two (5.0,
	// netherlands) tuples into one, so the average shifts to (5.0+6.5)/2.
	setPushed := mustEval(t, SetForm(pushed), src)
	assertAvg(setPushed, (5.0+6.5)/2, "set pushed")
	if bagPushed.Equal(setPushed) {
		t.Error("set semantics with projection push-in must differ from the bag result")
	}
}

func TestSetAndBagAgreeOnDuplicateFreeData(t *testing.T) {
	// When the database happens to be duplicate free and no operator creates
	// duplicates, the two semantics coincide.
	s := schema.NewRelation("r",
		schema.Attribute{Name: "a", Type: value.KindInt},
		schema.Attribute{Name: "b", Type: value.KindInt},
	)
	r := multiset.FromTuples(s, tuple.Ints(1, 10), tuple.Ints(2, 20), tuple.Ints(3, 30))
	src := mapSource{"r": r}
	exprs := []algebra.Expr{
		algebra.NewRel("r"),
		algebra.NewSelect(scalar.NewCompare(value.CmpGt, scalar.NewAttr(1), scalar.NewConst(value.NewInt(15))), algebra.NewRel("r")),
		algebra.NewJoin(scalar.Eq(0, 2), algebra.NewRel("r"), algebra.NewRel("r")),
		algebra.NewProject([]int{0, 1}, algebra.NewRel("r")),
	}
	for _, e := range exprs {
		bag := mustEval(t, e, src)
		set := mustEval(t, SetForm(e), src)
		if !bag.Equal(set) {
			t.Errorf("duplicate-free data: %s differs\nbag: %s\nset: %s", e, bag, set)
		}
	}
}

func TestSetOperatorsAndErrors(t *testing.T) {
	src := example32Source()
	set := func(e algebra.Expr, src Source) (Bag, error) { return Eval(SetForm(e), src) }
	// Difference and intersection behave as set operators.
	diff, err := set(algebra.NewDifference(algebra.NewRel("beer"), algebra.NewRel("beer")), src)
	if err != nil || !diff.IsEmpty() {
		t.Errorf("set difference E−E must be empty: %v %v", diff, err)
	}
	inter, err := set(algebra.NewIntersect(algebra.NewRel("beer"), algebra.NewRel("beer")), src)
	if err != nil || inter.Cardinality() != 3 {
		t.Errorf("set intersection E∩E = E: %v %v", inter, err)
	}
	prod, err := set(algebra.NewProduct(algebra.NewRel("brewery"), algebra.NewRel("brewery")), src)
	if err != nil || prod.Cardinality() != 4 {
		t.Errorf("set product: %v %v", prod, err)
	}
	// Extended projection dedups its output.
	xp, err := set(algebra.NewExtProject(
		[]scalar.Expr{scalar.NewConst(value.NewInt(1))}, []string{"one"}, algebra.NewRel("beer")), src)
	if err != nil || xp.Cardinality() != 1 {
		t.Errorf("set extended projection must dedup: %v %v", xp, err)
	}
	// Literal and TClose paths.
	lit := algebra.Literal{Rel: schema.Anonymous(schema.Attribute{Name: "x", Type: value.KindInt}),
		Rows: [][]value.Value{{value.NewInt(1)}, {value.NewInt(1)}}}
	l, err := set(lit, src)
	if err != nil || l.Cardinality() != 1 {
		t.Errorf("set literal must dedup: %v %v", l, err)
	}
	edges := multiset.FromTuples(schema.NewRelation("edge",
		schema.Attribute{Name: "s", Type: value.KindInt},
		schema.Attribute{Name: "d", Type: value.KindInt}), tuple.Ints(1, 2), tuple.Ints(2, 3))
	tc, err := set(algebra.NewTClose(algebra.NewRel("edge")), mapSource{"edge": edges})
	if err != nil || tc.Cardinality() != 3 {
		t.Errorf("set transitive closure: %v %v", tc, err)
	}
	// Error paths.
	fails := map[string]algebra.Expr{
		"unknown relation":          algebra.NewRel("missing"),
		"left operand error":        algebra.NewUnion(algebra.NewRel("missing"), algebra.NewRel("beer")),
		"right operand error":       algebra.NewUnion(algebra.NewRel("beer"), algebra.NewRel("missing")),
		"incompatible union":        algebra.NewUnion(algebra.NewRel("beer"), algebra.NewRel("brewery")),
		"incompatible difference":   algebra.NewDifference(algebra.NewRel("beer"), algebra.NewRel("brewery")),
		"incompatible intersection": algebra.NewIntersect(algebra.NewRel("beer"), algebra.NewRel("brewery")),
		"projection out of range":   algebra.NewProject([]int{9}, algebra.NewRel("beer")),
		"selection type error":      algebra.NewSelect(scalar.NewCompare(value.CmpGt, scalar.NewAttr(0), scalar.NewAttr(2)), algebra.NewRel("beer")),
		"join condition error":      algebra.NewJoin(scalar.NewCompare(value.CmpGt, scalar.NewAttr(0), scalar.NewAttr(2)), algebra.NewRel("beer"), algebra.NewRel("brewery")),
		"extended projection error": algebra.NewExtProject([]scalar.Expr{scalar.NewArith(value.OpMul, scalar.NewAttr(0), scalar.NewConst(value.NewInt(2)))}, nil, algebra.NewRel("beer")),
		"SUM over strings":          algebra.NewGroupBy(nil, algebra.AggSum, 0, algebra.NewRel("beer")),
		"unique input error":        algebra.NewUnique(algebra.NewRel("missing")),
		"tclose input error":        algebra.NewTClose(algebra.NewRel("missing")),
		"unsupported expression":    fakeExpr{},
		"unsupported operand":       algebra.NewUnion(fakeExpr{}, fakeExpr{}),
	}
	for label, e := range fails {
		if _, err := set(e, src); err == nil {
			t.Errorf("%s must fail under set semantics", label)
		}
		if _, err := Eval(e, src); err == nil {
			t.Errorf("%s must fail under bag semantics", label)
		}
	}
}

type fakeExpr struct{}

func (fakeExpr) Schema(algebra.Catalog) (schema.Relation, error) { return intSchema(1), nil }
func (fakeExpr) Children() []algebra.Expr                        { return nil }
func (fakeExpr) String() string                                  { return "fake" }

// TestProduct pins × (Definition 3.1): multiplicities multiply, the schema
// concatenates, and a product with the empty relation is empty.
func TestProduct(t *testing.T) {
	src := mapSource{
		"a":     multiset.FromTuples(intSchema(1), tuple.Ints(1), tuple.Ints(1)),
		"b":     multiset.FromTuples(intSchema(1), tuple.Ints(5), tuple.Ints(6)),
		"empty": multiset.New(intSchema(1)),
	}
	p := mustEval(t, algebra.NewProduct(algebra.NewRel("a"), algebra.NewRel("b")), src)
	if p.Schema().Arity() != 2 {
		t.Errorf("product schema arity = %d", p.Schema().Arity())
	}
	if p.Multiplicity(tuple.Ints(1, 5)) != 2 || p.Multiplicity(tuple.Ints(1, 6)) != 2 {
		t.Errorf("product multiplicities wrong: %v", p)
	}
	if p.Cardinality() != 4 {
		t.Errorf("product cardinality = %d", p.Cardinality())
	}
	if !mustEval(t, algebra.NewProduct(algebra.NewRel("a"), algebra.NewRel("empty")), src).IsEmpty() ||
		!mustEval(t, algebra.NewProduct(algebra.NewRel("empty"), algebra.NewRel("b")), src).IsEmpty() {
		t.Error("product with the empty relation is empty")
	}
}

// TestSelect pins σ (Definition 3.1): multiplicities are kept, and a
// predicate's error aborts the evaluation.
func TestSelect(t *testing.T) {
	src := mapSource{"r": multiset.FromTuples(intSchema(1), tuple.Ints(1), tuple.Ints(2), tuple.Ints(2))}
	gt1 := scalar.NewCompare(value.CmpGt, scalar.NewAttr(0), scalar.NewConst(value.NewInt(1)))
	sel := mustEval(t, algebra.NewSelect(gt1, algebra.NewRel("r")), src)
	if sel.Multiplicity(tuple.Ints(2)) != 2 || sel.Contains(tuple.Ints(1)) {
		t.Errorf("select = %v", sel)
	}
	bad := scalar.NewCompare(value.CmpGt, scalar.NewAttr(0), scalar.NewConst(value.NewString("x")))
	if _, err := Eval(algebra.NewSelect(bad, algebra.NewRel("r")), src); err == nil {
		t.Error("predicate errors must propagate")
	}
}

// TestProjectAccumulatesMultiplicities pins π (Definition 3.1): rows that
// collapse onto one projected row add their multiplicities.
func TestProjectAccumulatesMultiplicities(t *testing.T) {
	src := mapSource{"r": multiset.FromTuples(intSchema(2), tuple.Ints(1, 10), tuple.Ints(2, 10), tuple.Ints(3, 20))}
	p := mustEval(t, algebra.NewProject([]int{1}, algebra.NewRel("r")), src)
	if p.Multiplicity(tuple.Ints(10)) != 2 || p.Multiplicity(tuple.Ints(20)) != 1 {
		t.Errorf("bag projection must accumulate multiplicities: %v", p)
	}
	if _, err := Eval(algebra.NewProject([]int{5}, algebra.NewRel("r")), src); err == nil {
		t.Error("out-of-range projection must fail")
	}
}

// TestKeysAreExactEquality pins the oracle's equality: an int and a float
// are one value exactly when the float is integral and equals the int, ±0
// are one value, every NaN is one value, and nothing else crosses kinds.
func TestKeysAreExactEquality(t *testing.T) {
	const big = 1 << 53
	same := [][2]value.Value{
		{value.NewInt(3), value.NewFloat(3)},
		{value.NewInt(0), value.NewFloat(math.Copysign(0, -1))},
		{value.NewFloat(0), value.NewFloat(math.Copysign(0, -1))},
		{value.NewInt(big), value.NewFloat(big)},
		{value.NewInt(math.MinInt64), value.NewFloat(-0x1p63)},
		{value.NewFloat(math.NaN()), value.NewFloat(math.Float64frombits(0xfff8_0000_0000_beef))},
		{value.NewString("ab"), value.NewString("ab")},
		{value.Null, value.Null},
	}
	for _, p := range same {
		if valueKey(p[0]) != valueKey(p[1]) {
			t.Errorf("%s and %s must share a key", p[0], p[1])
		}
	}
	differ := [][2]value.Value{
		{value.NewInt(big + 1), value.NewFloat(big)},
		{value.NewInt(math.MaxInt64), value.NewFloat(0x1p63)},
		{value.NewInt(1), value.NewFloat(1.5)},
		{value.NewInt(1), value.NewBool(true)},
		{value.NewInt(0), value.Null},
		{value.NewString(""), value.Null},
		{value.NewFloat(math.Inf(1)), value.NewFloat(math.NaN())},
	}
	for _, p := range differ {
		if valueKey(p[0]) == valueKey(p[1]) {
			t.Errorf("%s and %s must not share a key", p[0], p[1])
		}
	}
	// Keys are self-delimiting: ("a", "bc") and ("ab", "c") are two rows.
	if rowKey([]value.Value{value.NewString("a"), value.NewString("bc")}) ==
		rowKey([]value.Value{value.NewString("ab"), value.NewString("c")}) {
		t.Error("row keys must be self-delimiting")
	}
}

// TestOrderIsExact pins the order MIN and MAX use: exact across int and
// float, NaN above every number.
func TestOrderIsExact(t *testing.T) {
	const big = 1 << 53
	less := [][2]value.Value{
		{value.NewFloat(big), value.NewInt(big + 1)},
		{value.NewInt(math.MaxInt64), value.NewFloat(0x1p63)},
		{value.NewFloat(-0x1p63), value.NewInt(math.MinInt64 + 1)},
		{value.NewFloat(math.Inf(1)), value.NewFloat(math.NaN())},
		{value.NewInt(math.MaxInt64), value.NewFloat(math.NaN())},
		{value.NewString("a"), value.NewString("b")},
		{value.NewBool(false), value.NewBool(true)},
	}
	for _, p := range less {
		if order(p[0], p[1]) >= 0 || order(p[1], p[0]) <= 0 {
			t.Errorf("%s must sort before %s", p[0], p[1])
		}
	}
	if order(value.NewInt(big), value.NewFloat(big)) != 0 ||
		order(value.NewFloat(math.NaN()), value.NewFloat(math.Copysign(math.NaN(), -1))) != 0 {
		t.Error("exactly equal numbers must order equal")
	}
}

// TestAggregatesFollowTheDefinitions pins Γ's partial functions and integer
// overflow to the engine's sentinels, so errors.Is matches across both.
func TestAggregatesFollowTheDefinitions(t *testing.T) {
	src := mapSource{
		"e": multiset.New(intSchema(1)),
		"n": multiset.FromTuples(intSchema(1), tuple.Ints(math.MaxInt64), tuple.Ints(1)),
	}
	for _, fn := range []algebra.Aggregate{algebra.AggAvg, algebra.AggMin, algebra.AggMax} {
		if _, err := Eval(algebra.NewGroupBy(nil, fn, 0, algebra.NewRel("e")), src); !errors.Is(err, plan.ErrEmptyAggregate) {
			t.Errorf("%s over the empty relation = %v, want ErrEmptyAggregate", fn, err)
		}
	}
	cnt := mustEval(t, algebra.NewGroupBy(nil, algebra.AggCount, 0, algebra.NewRel("e")), src)
	if !cnt.Contains(tuple.Ints(0)) {
		t.Errorf("CNT over the empty relation = %s, want (0)", cnt)
	}
	if _, err := Eval(algebra.NewGroupBy(nil, algebra.AggSum, 0, algebra.NewRel("n")), src); !errors.Is(err, plan.ErrOverflow) {
		t.Errorf("SUM outside int64 = %v, want ErrOverflow", err)
	}
}

// TestClosureIsTheLeastFixpoint checks the naive fixpoint on a chain with a
// duplicate edge and a cycle.
func TestClosureIsTheLeastFixpoint(t *testing.T) {
	src := mapSource{"edge": multiset.FromTuples(intSchema(2),
		tuple.Ints(1, 2), tuple.Ints(1, 2), tuple.Ints(2, 3), tuple.Ints(3, 4),
		tuple.Ints(5, 6), tuple.Ints(6, 5))}
	tc := mustEval(t, algebra.NewTClose(algebra.NewRel("edge")), src)
	want := [][2]int64{{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}, {5, 6}, {6, 5}, {5, 5}, {6, 6}}
	for _, p := range want {
		if tc.Multiplicity(tuple.Ints(p[0], p[1])) != 1 {
			t.Errorf("closure must hold %v once: %s", p, tc)
		}
	}
	if tc.Cardinality() != uint64(len(want)) {
		t.Errorf("closure = %s, want %d pairs", tc, len(want))
	}
}

// TestCheckDescribesTheDifference pins the readable diff of Check.
func TestCheckDescribesTheDifference(t *testing.T) {
	src := mapSource{"r": multiset.FromTuples(intSchema(1), tuple.Ints(1), tuple.Ints(1), tuple.Ints(2))}
	ref := mustEval(t, algebra.NewRel("r"), src)
	if err := ref.Check(src["r"]); err != nil {
		t.Fatalf("a relation must match its own bag: %v", err)
	}
	got := multiset.FromTuples(intSchema(1), tuple.Ints(1), tuple.Ints(3))
	err := ref.Check(got)
	if err == nil {
		t.Fatal("different bags must not match")
	}
	for _, line := range []string{"(1): want ×2, got ×1", "(2): want ×1, got ×0", "(3): want ×0, got ×1"} {
		if !strings.Contains(err.Error(), line) {
			t.Errorf("diff lacks %q:\n%v", line, err)
		}
	}
	floats := multiset.FromTuples(schema.Anonymous(schema.Attribute{Name: "x", Type: value.KindFloat}),
		tuple.New(value.NewFloat(1)), tuple.New(value.NewFloat(1)), tuple.New(value.NewFloat(2)))
	if err := ref.Check(floats); err != nil {
		t.Errorf("1.0 and 2.0 are the ints 1 and 2: %v", err)
	}
}
