package stmt

import (
	"errors"
	"strings"
	"testing"

	"mra/internal/algebra"
	"mra/internal/eval"
	"mra/internal/multiset"
	"mra/internal/oracle"
	"mra/internal/scalar"
	"mra/internal/schema"
	"mra/internal/tuple"
	"mra/internal/value"
)

// mockContext implements Context over a MapSource and records Replace/Assign
// calls, so statements can be unit-tested without the transaction layer.
type mockContext struct {
	src        eval.MapSource
	outputs    []*multiset.Relation
	replaceErr error
	assignErr  error
	replaced   []string
	assigned   []string
}

func newMock() *mockContext {
	s := schema.NewRelation("beer",
		schema.Attribute{Name: "name", Type: value.KindString},
		schema.Attribute{Name: "brewery", Type: value.KindString},
		schema.Attribute{Name: "alcperc", Type: value.KindFloat},
	)
	beer := multiset.New(s)
	beer.Add(tuple.New(value.NewString("pils"), value.NewString("guineken"), value.NewFloat(5.0)), 2)
	beer.Add(tuple.New(value.NewString("bock"), value.NewString("guineken"), value.NewFloat(6.5)), 1)
	beer.Add(tuple.New(value.NewString("stout"), value.NewString("guinness"), value.NewFloat(4.2)), 1)
	return &mockContext{src: eval.MapSource{"beer": beer}}
}

func (m *mockContext) Catalog() algebra.Catalog { return eval.CatalogOf(m.src) }

func (m *mockContext) Evaluate(e algebra.Expr) (*multiset.Relation, error) {
	out, err := oracle.Eval(e, m.src)
	if err != nil {
		return nil, err
	}
	return out.Relation(), nil
}

func (m *mockContext) Current(name string) (*multiset.Relation, bool) { return m.src.Relation(name) }

func (m *mockContext) Replace(name string, r *multiset.Relation) error {
	if m.replaceErr != nil {
		return m.replaceErr
	}
	m.replaced = append(m.replaced, name)
	m.src[strings.ToLower(name)] = r
	return nil
}

func (m *mockContext) Assign(name string, r *multiset.Relation) error {
	if m.assignErr != nil {
		return m.assignErr
	}
	m.assigned = append(m.assigned, name)
	m.src[strings.ToLower(name)] = r
	return nil
}

func (m *mockContext) Output(r *multiset.Relation) { m.outputs = append(m.outputs, r) }

func guineken() algebra.Expr {
	return algebra.NewSelect(
		scalar.NewCompare(value.CmpEq, scalar.NewAttr(1), scalar.NewConst(value.NewString("guineken"))),
		algebra.NewRel("beer"))
}

func TestInsertStatement(t *testing.T) {
	m := newMock()
	lit := algebra.Literal{
		Rel: schema.Anonymous(
			schema.Attribute{Name: "n", Type: value.KindString},
			schema.Attribute{Name: "b", Type: value.KindString},
			schema.Attribute{Name: "a", Type: value.KindFloat},
		),
		Rows: [][]value.Value{{value.NewString("ale"), value.NewString("guinness"), value.NewFloat(4.4)}},
	}
	if err := (Insert{Target: "beer", Source: lit}).Execute(m); err != nil {
		t.Fatal(err)
	}
	beer, _ := m.src.Relation("beer")
	if beer.Cardinality() != 5 {
		t.Errorf("|beer| = %d", beer.Cardinality())
	}
	if len(m.replaced) != 1 || m.replaced[0] != "beer" {
		t.Errorf("replaced = %v", m.replaced)
	}
	// The insert keeps the target's schema even when the source is anonymous.
	if beer.Schema().Name() != "beer" {
		t.Errorf("schema = %s", beer.Schema())
	}
	// Errors: unknown target, incompatible source, failing evaluation,
	// replace failure.
	if err := (Insert{Target: "wine", Source: lit}).Execute(m); err == nil {
		t.Error("unknown target must fail")
	}
	bad := algebra.Literal{Rel: schema.Anonymous(schema.Attribute{Name: "x", Type: value.KindInt}),
		Rows: [][]value.Value{{value.NewInt(1)}}}
	if err := (Insert{Target: "beer", Source: bad}).Execute(m); err == nil {
		t.Error("incompatible source must fail")
	}
	if err := (Insert{Target: "beer", Source: algebra.NewProject([]int{9}, algebra.NewRel("beer"))}).Execute(m); err == nil {
		t.Error("evaluation errors must propagate")
	}
	m.replaceErr = errors.New("boom")
	if err := (Insert{Target: "beer", Source: lit}).Execute(m); err == nil {
		t.Error("replace errors must propagate")
	}
}

func TestDeleteStatement(t *testing.T) {
	m := newMock()
	if err := (Delete{Target: "beer", Source: guineken()}).Execute(m); err != nil {
		t.Fatal(err)
	}
	beer, _ := m.src.Relation("beer")
	if beer.Cardinality() != 1 {
		t.Errorf("|beer| after delete = %d", beer.Cardinality())
	}
	if err := (Delete{Target: "wine", Source: guineken()}).Execute(m); err == nil {
		t.Error("unknown target must fail")
	}
	if err := (Delete{Target: "beer", Source: algebra.NewProject([]int{9}, algebra.NewRel("beer"))}).Execute(m); err == nil {
		t.Error("evaluation errors must propagate")
	}
	m.replaceErr = errors.New("boom")
	if err := (Delete{Target: "beer", Source: guineken()}).Execute(m); err == nil {
		t.Error("replace errors must propagate")
	}
}

func TestUpdateStatement(t *testing.T) {
	m := newMock()
	items := []scalar.Expr{
		scalar.NewAttr(0), scalar.NewAttr(1),
		scalar.NewArith(value.OpMul, scalar.NewAttr(2), scalar.NewConst(value.NewFloat(2))),
	}
	if err := (Update{Target: "beer", Selection: guineken(), Items: items}).Execute(m); err != nil {
		t.Fatal(err)
	}
	beer, _ := m.src.Relation("beer")
	if beer.Cardinality() != 4 {
		t.Errorf("update must preserve cardinality, got %d", beer.Cardinality())
	}
	// The duplicate pils tuple keeps its multiplicity 2 with the doubled value.
	doubled := tuple.New(value.NewString("pils"), value.NewString("guineken"), value.NewFloat(10.0))
	if beer.Multiplicity(doubled) != 2 {
		t.Errorf("updated duplicate multiplicity = %d: %s", beer.Multiplicity(doubled), beer)
	}
	// Untouched tuples stay.
	if beer.Multiplicity(tuple.New(value.NewString("stout"), value.NewString("guinness"), value.NewFloat(4.2))) != 1 {
		t.Error("non-selected tuples must be untouched")
	}
	// Validation failures.
	if err := (Update{Target: "beer", Selection: guineken(), Items: items[:1]}).Execute(m); err == nil {
		t.Error("short item list must fail")
	}
	badItems := []scalar.Expr{scalar.NewConst(value.NewInt(1)), scalar.NewAttr(1), scalar.NewAttr(2)}
	if err := (Update{Target: "beer", Selection: guineken(), Items: badItems}).Execute(m); err == nil {
		t.Error("structure-violating item list must fail")
	}
	untypable := []scalar.Expr{scalar.NewArith(value.OpMul, scalar.NewAttr(0), scalar.NewConst(value.NewInt(2))), scalar.NewAttr(1), scalar.NewAttr(2)}
	if err := (Update{Target: "beer", Selection: guineken(), Items: untypable}).Execute(m); err == nil {
		t.Error("untypeable item must fail")
	}
	if err := (Update{Target: "wine", Selection: guineken(), Items: items}).Execute(m); err == nil {
		t.Error("unknown target must fail")
	}
	if err := (Update{Target: "beer", Selection: algebra.NewProject([]int{9}, algebra.NewRel("beer")), Items: items}).Execute(m); err == nil {
		t.Error("selection validation errors must propagate")
	}
	m.replaceErr = errors.New("boom")
	if err := (Update{Target: "beer", Selection: guineken(), Items: items}).Execute(m); err == nil {
		t.Error("replace errors must propagate")
	}
}

func TestAssignAndQueryStatements(t *testing.T) {
	m := newMock()
	if err := (Assign{Name: "g", Source: guineken()}).Execute(m); err != nil {
		t.Fatal(err)
	}
	if len(m.assigned) != 1 || m.assigned[0] != "g" {
		t.Errorf("assigned = %v", m.assigned)
	}
	if err := (Query{Source: algebra.NewRel("g")}).Execute(m); err != nil {
		t.Fatal(err)
	}
	if len(m.outputs) != 1 || m.outputs[0].Cardinality() != 3 {
		t.Errorf("outputs = %v", m.outputs)
	}
	if err := (Assign{Name: "x", Source: algebra.NewRel("wine")}).Execute(m); err == nil {
		t.Error("assignment evaluation errors must propagate")
	}
	m.assignErr = errors.New("boom")
	if err := (Assign{Name: "y", Source: guineken()}).Execute(m); err == nil {
		t.Error("assign errors must propagate")
	}
	if err := (Query{Source: algebra.NewRel("wine")}).Execute(m); err == nil {
		t.Error("query evaluation errors must propagate")
	}
}

func TestProgramExecution(t *testing.T) {
	m := newMock()
	prog := Program{
		Assign{Name: "g", Source: guineken()},
		Delete{Target: "beer", Source: algebra.NewRel("g")},
		Query{Source: algebra.NewRel("beer")},
	}
	if err := prog.Execute(m); err != nil {
		t.Fatal(err)
	}
	if len(m.outputs) != 1 || m.outputs[0].Cardinality() != 1 {
		t.Errorf("program output = %v", m.outputs)
	}
	// A failing statement stops the program and identifies its position.
	bad := Program{
		Query{Source: algebra.NewRel("beer")},
		Insert{Target: "nosuch", Source: algebra.NewRel("beer")},
		Query{Source: algebra.NewRel("beer")},
	}
	m2 := newMock()
	err := bad.Execute(m2)
	if err == nil {
		t.Fatal("failing program must error")
	}
	if !strings.Contains(err.Error(), "statement 2") {
		t.Errorf("error must identify the failing statement: %v", err)
	}
	if len(m2.outputs) != 1 {
		t.Errorf("statements after the failure must not run: %d outputs", len(m2.outputs))
	}
	if !errors.Is(err, ErrStatement) {
		t.Errorf("error must wrap ErrStatement, got %v", err)
	}
	// String rendering.
	if s := prog.String(); !strings.Contains(s, "g = ") || !strings.Contains(s, "delete(beer") {
		t.Errorf("program string = %q", s)
	}
}
