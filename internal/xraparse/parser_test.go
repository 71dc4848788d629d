package xraparse

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"mra/internal/algebra"
	"mra/internal/eval"
	"mra/internal/lex"
	"mra/internal/multiset"
	"mra/internal/oracle"
	"mra/internal/scalar"
	"mra/internal/schema"
	"mra/internal/stmt"
	"mra/internal/tuple"
	"mra/internal/value"
)

func beerSource() eval.MapSource {
	beer := multiset.New(schema.NewRelation("beer",
		schema.Attribute{Name: "name", Type: value.KindString},
		schema.Attribute{Name: "brewery", Type: value.KindString},
		schema.Attribute{Name: "alcperc", Type: value.KindFloat},
	))
	add := func(r *multiset.Relation, vals ...value.Value) { r.Add(tuple.New(vals...), 1) }
	add(beer, value.NewString("pils"), value.NewString("guineken"), value.NewFloat(5.0))
	add(beer, value.NewString("pils"), value.NewString("brolsch"), value.NewFloat(5.2))
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

// mustEval parses and evaluates an XRA expression against the beer source.
func mustEval(t *testing.T, src string) oracle.Bag {
	t.Helper()
	e, err := ParseExpression(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	s := beerSource()
	if err := algebra.Validate(e, eval.CatalogOf(s)); err != nil {
		t.Fatalf("validate %q: %v", src, err)
	}
	r, err := oracle.Eval(e, s)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return r
}

func TestParseExample31(t *testing.T) {
	// The paper's Example 3.1 in XRA syntax.
	r := mustEval(t, "project[%1](select[%6 = 'netherlands'](join[%2 = %4](beer, brewery)))")
	if r.Cardinality() != 3 {
		t.Errorf("cardinality = %d, want 3", r.Cardinality())
	}
	if r.Multiplicity(tuple.New(value.NewString("pils"))) != 2 {
		t.Error("duplicates must be preserved")
	}
}

func TestParseExample32(t *testing.T) {
	r := mustEval(t, "groupby[(%6), AVG, %3](join[%2 = %4](beer, brewery))")
	if r.Cardinality() != 1 {
		t.Fatalf("one country expected, got %d", r.Cardinality())
	}
	r2 := mustEval(t, "groupby[(%2), avg, %1](project[%3, %6](join[%2 = %4](beer, brewery)))")
	if !r.Equal(r2) {
		t.Error("projection push-in must not change the result under bag semantics")
	}
}

func TestParseOperators(t *testing.T) {
	cases := map[string]uint64{
		"beer":                                            3,
		"union(beer, beer)":                               6,
		"diff(beer, beer)":                                0,
		"difference(beer, select[%3 > 6](beer))":          2,
		"intersect(beer, beer)":                           3,
		"product(beer, brewery)":                          6,
		"select[%3 >= 5.2 and %2 = 'guineken'](beer)":     1,
		"select[%3 < 5.1 or %3 > 6.0](beer)":              2,
		"select[not (%2 = 'guineken')](beer)":             1,
		"select[true](beer)":                              3,
		"select[false](beer)":                             0,
		"project[%1, %3](beer)":                           3,
		"xproject[%1, %3 * 2](beer)":                      3,
		"project[%3 * 2](beer)":                           3, // non-plain items promote to extended projection
		"unique(project[%1](beer))":                       2,
		"dedup(project[%2](beer))":                        2,
		"groupby[(), CNT, %1](beer)":                      1,
		"groupby[(%2), count, %1](beer)":                  2,
		"groupby[(%2), count, %1, MAX, %3](beer)":         2, // multi-aggregate: one row per group
		"groupby[(), CNT, %1, MIN, %3, max, %3](beer)":    1,
		"join[%2 = %4](beer, brewery)":                    3,
		"[(1, 'x'), (1, 'x'), (2, 'y')]":                  3,
		"select[%1 % 2 = 0]([(1), (2), (3), (4)])":        2,
		"select[(%1 + %2) > 3]([(1, 1), (2, 2), (3, 3)])": 2,
		"select[-%1 < -1]([(1), (2), (3)])":               2,
		"xproject[%1 || '!'](project[%1](beer))":          3,
		"tclose([(1, 2), (2, 3)])":                        3,
	}
	for src, want := range cases {
		r := mustEval(t, src)
		if r.Cardinality() != want {
			t.Errorf("%s: cardinality = %d, want %d", src, r.Cardinality(), want)
		}
	}
}

func TestParseComments(t *testing.T) {
	src := `-- names of all beers
project[%1]( -- keep the name attribute
  beer)`
	r := mustEval(t, src)
	if r.Cardinality() != 3 {
		t.Errorf("cardinality = %d", r.Cardinality())
	}
}

func TestParseStatements(t *testing.T) {
	s, err := ParseStatement("insert(beer, [('ale', 'guineken', 4.5)])")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(stmt.Insert); !ok {
		t.Errorf("expected Insert, got %T", s)
	}
	s, err = ParseStatement("delete(beer, select[%2 = 'guineken'](beer));")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(stmt.Delete); !ok {
		t.Errorf("expected Delete, got %T", s)
	}
	s, err = ParseStatement("update(beer, select[%2 = 'guineken'](beer), (%1, %2, %3 * 1.1))")
	if err != nil {
		t.Fatal(err)
	}
	up, ok := s.(stmt.Update)
	if !ok || len(up.Items) != 3 {
		t.Errorf("expected a 3-item Update, got %#v", s)
	}
	s, err = ParseStatement("strong = select[%3 >= 6](beer)")
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := s.(stmt.Assign); !ok || a.Name != "strong" {
		t.Errorf("expected Assign strong, got %#v", s)
	}
	s, err = ParseStatement("?project[%1](beer)")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(stmt.Query); !ok {
		t.Errorf("expected Query, got %T", s)
	}
	// A bare expression is a query.
	s, err = ParseStatement("project[%1](beer)")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(stmt.Query); !ok {
		t.Errorf("bare expression should parse as Query, got %T", s)
	}
}

func TestParseProgramAndScript(t *testing.T) {
	prog, err := ParseProgram(`
		strong = select[%3 >= 6](beer);
		?project[%1](strong);
		delete(beer, strong);
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog) != 3 {
		t.Fatalf("program length = %d", len(prog))
	}
	if _, ok := prog[0].(stmt.Assign); !ok {
		t.Error("first statement should be the assignment")
	}

	txs, err := ParseScript(`
		?beer;
		begin
			delete(beer, select[%2 = 'guineken'](beer));
			insert(beer, [('radler', 'brolsch', 2.0)]);
		end;
		?beer
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 3 {
		t.Fatalf("expected 3 transactions, got %d", len(txs))
	}
	if txs[0].Explicit || !txs[1].Explicit || txs[2].Explicit {
		t.Error("only the begin/end block is an explicit transaction")
	}
	if len(txs[1].Program) != 2 {
		t.Errorf("bracketed transaction has %d statements", len(txs[1].Program))
	}
	// Empty script.
	empty, err := ParseScript("   -- nothing here\n")
	if err != nil || len(empty) != 0 {
		t.Errorf("empty script = %v, %v", empty, err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                                   // empty expression
		"select[%1 >](beer)",                 // missing operand
		"select[%1 = 1(beer)",                // missing bracket
		"project[](beer)",                    // empty projection
		"project[%0](beer)",                  // attribute numbers are 1-based
		"union(beer)",                        // missing operand
		"union(beer, beer",                   // missing paren
		"groupby[%1, CNT, %1](beer)",         // grouping list must be parenthesised
		"groupby[(name), CNT, %1](beer)",     // grouping attrs are positional
		"groupby[(%1), MEDIAN, %1](beer)",    // unknown aggregate
		"groupby[(%1), CNT, name](beer)",     // aggregate attr must be positional
		"join[%1 = %4](beer brewery)",        // missing comma
		"[()]",                               // literal row needs values
		"[]",                                 // empty literal
		"[(1, 'x') (2, 'y')]",                // missing comma accepted? no: rows must separate — actually optional; ensure valid
		"select['abc](beer)",                 // unterminated string
		"select[#](beer)",                    // illegal character
		"insert(beer [('x','y',1)])",         // missing comma
		"insert(, beer)",                     // missing target
		"update(beer, beer, ())",             // empty update list
		"update(beer, beer (%1))",            // missing comma
		"?project[%1](beer) extra",           // trailing garbage
		"1.2.3",                              // malformed number
		"select[%1 ! 2](beer)",               // bad operator
		"select[%1 | 2](beer)",               // bad operator
		"begin ?beer",                        // unterminated transaction (script)
		"update(beer, select[%2='x'](beer))", // missing item list
	}
	for _, src := range bad {
		_, errExpr := ParseExpression(src)
		_, errStmt := ParseStatement(src)
		_, errScript := ParseScript(src)
		if errExpr == nil && errStmt == nil && errScript == nil {
			t.Errorf("input %q should fail to parse in every mode", src)
		}
	}
	// Error messages carry positions.
	_, err := ParseExpression("select[%1 =](beer)")
	if err == nil || !strings.Contains(err.Error(), "xra:") {
		t.Errorf("error should carry a position, got %v", err)
	}
	var serr *lex.Error
	if !errors.As(err, &serr) || serr.Lang != "xra" || serr.Line != 1 || serr.Col == 0 {
		t.Errorf("expected a positioned lex.Error, got %#v", err)
	}
}

func TestParseRoundTripThroughString(t *testing.T) {
	// The algebra's String rendering is itself valid XRA for the constructs
	// the parser accepts, so parse → print → parse is a fixpoint.
	sources := []string{
		"project[%1](select[%6 = 'netherlands'](join[%2 = %4](beer, brewery)))",
		"union(beer, diff(beer, beer))",
		"groupby[(%2),SUM,%3](beer)",
		"groupby[(%2),CNT,%1,SUM,%3,MAX,%3](beer)",
		"unique(project[%2](beer))",
		"intersect(beer, beer)",
		"tclose(project[%1, %2](brewery))",
	}
	for _, src := range sources {
		e1, err := ParseExpression(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		printed := e1.String()
		e2, err := ParseExpression(printed)
		if err != nil {
			t.Fatalf("reparse %q: %v", printed, err)
		}
		if e1.String() != e2.String() {
			t.Errorf("round trip changed the expression: %q vs %q", e1, e2)
		}
	}
}

// TestStatementsRoundTripThroughString prints one statement of every form
// and parses the text back: each String is valid XRA for its own statement,
// so print → parse → print is a fixpoint.  Analyze{} is what SQL's bare
// ANALYZE compiles to; it prints as analyze().  Query.Order has no XRA
// spelling (it comes from SQL ORDER BY) and is left empty.
func TestStatementsRoundTripThroughString(t *testing.T) {
	beer := algebra.NewRel("beer")
	strong := algebra.NewSelect(scalar.NewCompare(value.CmpGe, scalar.NewAttr(2), scalar.NewConst(value.NewFloat(6))), beer)
	prog := stmt.Program{
		stmt.Insert{Target: "beer", Source: strong},
		stmt.Delete{Target: "beer", Source: strong},
		stmt.Update{Target: "beer", Selection: strong, Items: []scalar.Expr{
			scalar.NewAttr(0), scalar.NewAttr(1),
			scalar.NewArith(value.OpMul, scalar.NewAttr(2), scalar.NewConst(value.NewFloat(1.1)))}},
		stmt.Assign{Name: "strong", Source: strong},
		stmt.Query{Source: algebra.NewProject([]int{0}, beer)},
		stmt.Analyze{Target: "beer"},
		stmt.Analyze{},
	}
	printed := prog.String()
	parsed, err := ParseProgram(printed)
	if err != nil {
		t.Fatalf("parse %q: %v", printed, err)
	}
	if len(parsed) != len(prog) {
		t.Fatalf("%d statements parsed back, want %d", len(parsed), len(prog))
	}
	for i, s := range prog {
		if got, want := fmt.Sprintf("%T %s", parsed[i], parsed[i]), fmt.Sprintf("%T %s", s, s); got != want {
			t.Errorf("statement %d: parsed back as %s, printed from %s", i, got, want)
		}
	}
	if a, ok := parsed[len(parsed)-1].(stmt.Analyze); !ok || a.Target != "" {
		t.Errorf("analyze() parsed as %#v, want an empty target", parsed[len(parsed)-1])
	}
}

func TestParsedStatementsExecute(t *testing.T) {
	// Integration: a parsed program built from the paper's Example 4.1 runs
	// against a fake context and produces the expected relation.
	prog, err := ParseProgram("update(beer, select[%2 = 'guineken'](beer), (%1, %2, %3 * 1.1)); ?beer")
	if err != nil {
		t.Fatal(err)
	}
	ctx := newFakeContext(beerSource())
	if err := prog.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if len(ctx.outputs) != 1 {
		t.Fatalf("outputs = %d", len(ctx.outputs))
	}
	sum := 0.0
	ctx.outputs[0].Each(func(tp tuple.Tuple, _ uint64) bool {
		sum += tp.At(2).Float()
		return true
	})
	want := 5.0*1.1 + 5.2 + 6.5*1.1
	if sum < want-1e-9 || sum > want+1e-9 {
		t.Errorf("total alcohol after update = %v, want %v", sum, want)
	}
}

// fakeContext is a minimal stmt.Context over a MapSource for parser-level
// integration tests (the real context lives in package txn).
type fakeContext struct {
	src     eval.MapSource
	outputs []*multiset.Relation
}

func newFakeContext(src eval.MapSource) *fakeContext { return &fakeContext{src: src} }

func (f *fakeContext) Catalog() algebra.Catalog { return eval.CatalogOf(f.src) }

func (f *fakeContext) Evaluate(e algebra.Expr) (*multiset.Relation, error) {
	out, err := oracle.Eval(e, f.src)
	if err != nil {
		return nil, err
	}
	return out.Relation(), nil
}

func (f *fakeContext) Current(name string) (*multiset.Relation, bool) { return f.src.Relation(name) }

func (f *fakeContext) Replace(name string, r *multiset.Relation) error {
	f.src[strings.ToLower(name)] = r
	return nil
}

func (f *fakeContext) Assign(name string, r *multiset.Relation) error {
	f.src[strings.ToLower(name)] = r
	return nil
}

func (f *fakeContext) Output(r *multiset.Relation) { f.outputs = append(f.outputs, r) }
