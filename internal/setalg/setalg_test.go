package setalg

import (
	"testing"

	"mra/internal/algebra"
	"mra/internal/eval"
	"mra/internal/multiset"
	"mra/internal/scalar"
	"mra/internal/schema"
	"mra/internal/tuple"
	"mra/internal/value"
)

// example32Source builds a small beer database where the set-based and bag
// based aggregates demonstrably diverge: two Dutch beers share the same
// alcohol percentage.
func example32Source() eval.MapSource {
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
	return eval.MapSource{"beer": beer, "brewery": brewery}
}

func joinBeerBrewery() algebra.Expr {
	return algebra.NewJoin(scalar.Eq(1, 3), algebra.NewRel("beer"), algebra.NewRel("brewery"))
}

func TestSetSemanticsDeduplicates(t *testing.T) {
	s := schema.Anonymous(schema.Attribute{Name: "x", Type: value.KindInt})
	r := multiset.FromTuples(s, tuple.Ints(1), tuple.Ints(1), tuple.Ints(2))
	src := eval.MapSource{"r": r}
	out, err := (Engine{}).Eval(algebra.NewRel("r"), src)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cardinality() != 2 || out.Multiplicity(tuple.Ints(1)) != 1 {
		t.Errorf("set semantics must deduplicate base relations: %v", out)
	}
	// Union is a set union.
	u, err := (Engine{}).Eval(algebra.NewUnion(algebra.NewRel("r"), algebra.NewRel("r")), src)
	if err != nil {
		t.Fatal(err)
	}
	if u.Cardinality() != 2 {
		t.Errorf("set union must deduplicate: %v", u)
	}
	// δ is the identity under set semantics.
	d, err := (Engine{}).Eval(algebra.NewUnique(algebra.NewRel("r")), src)
	if err != nil {
		t.Fatal(err)
	}
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

	bagEngine := eval.Reference{}
	bagDirect, err := bagEngine.Eval(direct, src)
	if err != nil {
		t.Fatal(err)
	}
	bagPushed, err := bagEngine.Eval(pushed, src)
	if err != nil {
		t.Fatal(err)
	}
	if !bagDirect.Equal(bagPushed) {
		t.Fatal("bag semantics: projection push-in must preserve the aggregate")
	}
	wantAvg := (5.0 + 5.0 + 6.5) / 3
	assertAvg := func(r *multiset.Relation, want float64, label string) {
		t.Helper()
		found := false
		r.Each(func(tp tuple.Tuple, _ uint64) bool {
			if tp.At(0).Str() == "netherlands" {
				got := tp.At(1).Float()
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
	setEngine := Engine{}
	setPushed, err := setEngine.Eval(pushed, src)
	if err != nil {
		t.Fatal(err)
	}
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
	src := eval.MapSource{"r": r}
	exprs := []algebra.Expr{
		algebra.NewRel("r"),
		algebra.NewSelect(scalar.NewCompare(value.CmpGt, scalar.NewAttr(1), scalar.NewConst(value.NewInt(15))), algebra.NewRel("r")),
		algebra.NewJoin(scalar.Eq(0, 2), algebra.NewRel("r"), algebra.NewRel("r")),
		algebra.NewProject([]int{0, 1}, algebra.NewRel("r")),
	}
	for _, e := range exprs {
		bag, err := (eval.Reference{}).Eval(e, src)
		if err != nil {
			t.Fatal(err)
		}
		set, err := (Engine{}).Eval(e, src)
		if err != nil {
			t.Fatal(err)
		}
		if !bag.Equal(set) {
			t.Errorf("duplicate-free data: %s differs\nbag: %s\nset: %s", e, bag, set)
		}
	}
}

func TestSetOperatorsAndErrors(t *testing.T) {
	src := example32Source()
	e := Engine{}
	// Difference and intersection behave as set operators.
	diff, err := e.Eval(algebra.NewDifference(algebra.NewRel("beer"), algebra.NewRel("beer")), src)
	if err != nil || !diff.IsEmpty() {
		t.Errorf("set difference E−E must be empty: %v %v", diff, err)
	}
	inter, err := e.Eval(algebra.NewIntersect(algebra.NewRel("beer"), algebra.NewRel("beer")), src)
	if err != nil || inter.Cardinality() != 3 {
		t.Errorf("set intersection E∩E = E: %v %v", inter, err)
	}
	prod, err := e.Eval(algebra.NewProduct(algebra.NewRel("brewery"), algebra.NewRel("brewery")), src)
	if err != nil || prod.Cardinality() != 4 {
		t.Errorf("set product: %v %v", prod, err)
	}
	// Extended projection dedups its output.
	xp, err := e.Eval(algebra.NewExtProject(
		[]scalar.Expr{scalar.NewConst(value.NewInt(1))}, []string{"one"}, algebra.NewRel("beer")), src)
	if err != nil || xp.Cardinality() != 1 {
		t.Errorf("set extended projection must dedup: %v %v", xp, err)
	}
	// Literal and TClose paths.
	lit := algebra.Literal{Rel: schema.Anonymous(schema.Attribute{Name: "x", Type: value.KindInt}),
		Rows: [][]value.Value{{value.NewInt(1)}, {value.NewInt(1)}}}
	l, err := e.Eval(lit, src)
	if err != nil || l.Cardinality() != 1 {
		t.Errorf("set literal must dedup: %v %v", l, err)
	}
	edges := multiset.FromTuples(schema.NewRelation("edge",
		schema.Attribute{Name: "s", Type: value.KindInt},
		schema.Attribute{Name: "d", Type: value.KindInt}), tuple.Ints(1, 2), tuple.Ints(2, 3))
	tcSrc := eval.MapSource{"edge": edges}
	tc, err := e.Eval(algebra.NewTClose(algebra.NewRel("edge")), tcSrc)
	if err != nil || tc.Cardinality() != 3 {
		t.Errorf("set transitive closure: %v %v", tc, err)
	}
	// Error paths.
	if _, err := e.Eval(algebra.NewRel("missing"), src); err == nil {
		t.Error("unknown relation must fail")
	}
	if _, err := e.Eval(algebra.NewUnion(algebra.NewRel("missing"), algebra.NewRel("beer")), src); err == nil {
		t.Error("operand errors must propagate")
	}
	if _, err := e.Eval(algebra.NewUnion(algebra.NewRel("beer"), algebra.NewRel("missing")), src); err == nil {
		t.Error("right operand errors must propagate")
	}
	if _, err := e.Eval(algebra.NewUnion(algebra.NewRel("beer"), algebra.NewRel("brewery")), src); err == nil {
		t.Error("incompatible union must fail")
	}
	if _, err := e.Eval(algebra.NewDifference(algebra.NewRel("beer"), algebra.NewRel("brewery")), src); err == nil {
		t.Error("incompatible difference must fail")
	}
	if _, err := e.Eval(algebra.NewIntersect(algebra.NewRel("beer"), algebra.NewRel("brewery")), src); err == nil {
		t.Error("incompatible intersection must fail")
	}
	if _, err := e.Eval(algebra.NewProject([]int{9}, algebra.NewRel("beer")), src); err == nil {
		t.Error("projection errors must propagate")
	}
	badSel := algebra.NewSelect(scalar.NewCompare(value.CmpGt, scalar.NewAttr(0), scalar.NewAttr(2)), algebra.NewRel("beer"))
	if _, err := e.Eval(badSel, src); err == nil {
		t.Error("selection type errors must propagate")
	}
	badJoin := algebra.NewJoin(scalar.NewCompare(value.CmpGt, scalar.NewAttr(0), scalar.NewAttr(2)),
		algebra.NewRel("beer"), algebra.NewRel("brewery"))
	if _, err := e.Eval(badJoin, src); err == nil {
		t.Error("join condition errors must propagate")
	}
	badXP := algebra.NewExtProject([]scalar.Expr{scalar.NewArith(value.OpMul, scalar.NewAttr(0), scalar.NewConst(value.NewInt(2)))},
		nil, algebra.NewRel("beer"))
	if _, err := e.Eval(badXP, src); err == nil {
		t.Error("extended projection errors must propagate")
	}
	badGroup := algebra.NewGroupBy(nil, algebra.AggSum, 0, algebra.NewRel("beer"))
	if _, err := e.Eval(badGroup, src); err == nil {
		t.Error("group-by errors must propagate")
	}
	if _, err := e.Eval(algebra.NewUnique(algebra.NewRel("missing")), src); err == nil {
		t.Error("unique input errors must propagate")
	}
	if _, err := e.Eval(algebra.NewTClose(algebra.NewRel("missing")), src); err == nil {
		t.Error("tclose input errors must propagate")
	}
	if _, err := e.Eval(fakeExpr{}, src); err == nil {
		t.Error("unsupported expressions must fail")
	}
}

type fakeExpr struct{}

func (fakeExpr) Schema(algebra.Catalog) (schema.Relation, error) { return schema.Relation{}, nil }
func (fakeExpr) Children() []algebra.Expr                        { return nil }
func (fakeExpr) String() string                                  { return "fake" }
