package sqlfront

import (
	"errors"
	"strings"
	"testing"

	"mra/internal/algebra"
	"mra/internal/eval"
	"mra/internal/lex"
	"mra/internal/multiset"
	"mra/internal/oracle"
	"mra/internal/plan"
	"mra/internal/scalar"
	"mra/internal/schema"
	"mra/internal/stmt"
	"mra/internal/tuple"
	"mra/internal/value"
)

// beerSource builds the paper's running example with a known data set.
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
	add(beer, value.NewString("stout"), value.NewString("guinness"), value.NewFloat(4.2))

	brewery := multiset.New(schema.NewRelation("brewery",
		schema.Attribute{Name: "name", Type: value.KindString},
		schema.Attribute{Name: "city", Type: value.KindString},
		schema.Attribute{Name: "country", Type: value.KindString},
	))
	add(brewery, value.NewString("guineken"), value.NewString("amsterdam"), value.NewString("netherlands"))
	add(brewery, value.NewString("brolsch"), value.NewString("enschede"), value.NewString("netherlands"))
	add(brewery, value.NewString("guinness"), value.NewString("dublin"), value.NewString("ireland"))
	return eval.MapSource{"beer": beer, "brewery": brewery}
}

// runSQL compiles and evaluates a SELECT statement against the beer source.
func runSQL(t *testing.T, sql string) oracle.Bag {
	t.Helper()
	src := beerSource()
	q, err := CompileQuery(sql, eval.CatalogOf(src))
	if err != nil {
		t.Fatalf("compile %q: %v", sql, err)
	}
	if err := algebra.Validate(q.Expr, eval.CatalogOf(src)); err != nil {
		t.Fatalf("validate %q (%s): %v", sql, q.Expr, err)
	}
	r, err := oracle.Eval(q.Expr, src)
	if err != nil {
		t.Fatalf("eval %q: %v", sql, err)
	}
	return r
}

func TestSelectBasics(t *testing.T) {
	cases := map[string]uint64{
		"SELECT * FROM beer":                                                                4,
		"SELECT name FROM beer":                                                             4,
		"SELECT DISTINCT name FROM beer":                                                    3,
		"SELECT name, alcperc FROM beer WHERE alcperc > 5":                                  2,
		"SELECT name FROM beer WHERE brewery = 'guineken'":                                  2,
		"SELECT name FROM beer WHERE alcperc > 5 AND alcperc < 6":                           1,
		"SELECT name FROM beer WHERE alcperc < 5 OR alcperc > 6":                            2,
		"SELECT name FROM beer WHERE NOT brewery = 'guineken'":                              2,
		"SELECT name FROM beer WHERE alcperc <> 5.0":                                        3,
		"SELECT name, alcperc * 2 AS double_alc FROM beer":                                  4,
		"SELECT * FROM beer, brewery":                                                       12,
		"SELECT * FROM beer, brewery WHERE beer.brewery = brewery.name":                     4,
		"SELECT * FROM beer JOIN brewery ON beer.brewery = brewery.name":                    4,
		"SELECT b1.name FROM beer b1, beer b2 WHERE b1.alcperc > b2.alcperc":                6,
		"SELECT name FROM beer WHERE alcperc >= 4.2 AND alcperc <= 5.2":                     3,
		"SELECT DISTINCT country FROM brewery":                                              2,
		"SELECT name FROM beer WHERE false":                                                 0,
		"SELECT name FROM beer WHERE (alcperc > 6 OR alcperc < 5) AND brewery = 'guineken'": 1,
	}
	for sql, want := range cases {
		r := runSQL(t, sql)
		if r.Cardinality() != want {
			t.Errorf("%s: cardinality = %d, want %d", sql, r.Cardinality(), want)
		}
	}
}

func TestSelectStarSchemaAndProjectionNames(t *testing.T) {
	r := runSQL(t, "SELECT name AS beer_name, alcperc FROM beer")
	if r.Schema().Attribute(0).Name != "beer_name" || r.Schema().Attribute(1).Name != "alcperc" {
		t.Errorf("output schema = %s", r.Schema())
	}
	all := runSQL(t, "SELECT * FROM beer JOIN brewery ON beer.brewery = brewery.name")
	if all.Schema().Arity() != 6 {
		t.Errorf("SELECT * over a join has arity %d", all.Schema().Arity())
	}
}

// TestExample31SQL runs the SQL equivalent of the paper's Example 3.1 and
// checks duplicates are preserved.
func TestExample31SQL(t *testing.T) {
	r := runSQL(t, `SELECT beer.name FROM beer, brewery
		WHERE beer.brewery = brewery.name AND brewery.country = 'netherlands'`)
	if r.Cardinality() != 3 {
		t.Fatalf("cardinality = %d, want 3", r.Cardinality())
	}
	if r.Multiplicity(tuple.New(value.NewString("pils"))) != 2 {
		t.Error("bag semantics must preserve the duplicate beer name")
	}
}

// TestExample32SQL runs the exact SQL statement printed in the paper's
// Example 3.2 and cross-checks it against the hand-built algebra expression.
func TestExample32SQL(t *testing.T) {
	src := beerSource()
	sql := `SELECT country, AVG(alcperc)
	        FROM beer, brewery
	        WHERE beer.brewery = brewery.name
	        GROUP BY country`
	q, err := CompileQuery(sql, eval.CatalogOf(src))
	if err != nil {
		t.Fatal(err)
	}
	got, err := oracle.Eval(q.Expr, src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Eval(
		algebra.NewGroupBy([]int{5}, algebra.AggAvg, 2,
			algebra.NewJoin(scalar.Eq(1, 3), algebra.NewRel("beer"), algebra.NewRel("brewery"))), src)
	if err != nil {
		t.Fatal(err)
	}
	// The SQL result carries the aggregate column name "avg"; compare contents
	// positionally.
	if got.Cardinality() != want.Cardinality() || got.Cardinality() != 2 {
		t.Fatalf("expected 2 groups, got %d vs %d", got.Cardinality(), want.Cardinality())
	}
	if !got.Equal(want) {
		t.Errorf("SQL and algebra results differ:\n%s\n%s", got, want)
	}
}

func TestGroupByVariantsSQL(t *testing.T) {
	counts := runSQL(t, "SELECT brewery, COUNT(*) AS n FROM beer GROUP BY brewery")
	if counts.Cardinality() != 3 {
		t.Errorf("groups = %d", counts.Cardinality())
	}
	if counts.Multiplicity(tuple.New(value.NewString("guineken"), value.NewInt(2))) != 1 {
		t.Errorf("guineken count wrong: %s", counts)
	}
	// Aggregate first in the SELECT list forces a reordering projection.
	flipped := runSQL(t, "SELECT COUNT(*) AS n, brewery FROM beer GROUP BY brewery")
	if flipped.Multiplicity(tuple.New(value.NewInt(2), value.NewString("guineken"))) != 1 {
		t.Errorf("reordered output wrong: %s", flipped)
	}
	// Global aggregate without GROUP BY.
	total := runSQL(t, "SELECT COUNT(*) FROM beer")
	if !total.Contains(tuple.New(value.NewInt(4))) {
		t.Errorf("global count = %s", total)
	}
	maxAlc := runSQL(t, "SELECT MAX(alcperc) FROM beer WHERE brewery = 'guineken'")
	if !maxAlc.Contains(tuple.New(value.NewFloat(6.5))) {
		t.Errorf("global max = %s", maxAlc)
	}
	sum := runSQL(t, "SELECT brewery, SUM(alcperc) AS total FROM beer GROUP BY brewery HAVING total > 10")
	if sum.Cardinality() != 1 {
		t.Errorf("HAVING filter = %s", sum)
	}
	having2 := runSQL(t, "SELECT brewery, COUNT(*) FROM beer GROUP BY brewery HAVING COUNT(*) >= 2")
	if having2.Cardinality() != 1 {
		t.Errorf("HAVING with aggregate call = %s", having2)
	}
	having3 := runSQL(t, "SELECT brewery, COUNT(*) FROM beer GROUP BY brewery HAVING brewery <> 'guineken' AND COUNT(*) >= 1")
	if having3.Cardinality() != 2 {
		t.Errorf("HAVING on grouping column = %s", having3)
	}
	// A boolean constant is a HAVING condition as it is a WHERE condition.
	havingTrue := runSQL(t, "SELECT brewery, COUNT(*) FROM beer GROUP BY brewery HAVING true")
	if havingTrue.Cardinality() != 3 {
		t.Errorf("HAVING true = %s", havingTrue)
	}
	minName := runSQL(t, "SELECT MIN(name) FROM beer")
	if !minName.Contains(tuple.New(value.NewString("bock"))) {
		t.Errorf("MIN over strings = %s", minName)
	}
}

// TestMultiAggregateSQL exercises the lifted one-aggregate-per-query
// restriction: several aggregates plan as one groupby pass, mixed freely with
// grouping columns and reordered to SELECT order.
func TestMultiAggregateSQL(t *testing.T) {
	multi := runSQL(t, "SELECT brewery, COUNT(*) AS n, SUM(alcperc) AS total, MAX(alcperc) FROM beer GROUP BY brewery")
	if multi.Cardinality() != 3 {
		t.Fatalf("groups = %d, want 3", multi.Cardinality())
	}
	if multi.Multiplicity(tuple.New(
		value.NewString("guineken"), value.NewInt(2), value.NewFloat(11.5), value.NewFloat(6.5))) != 1 {
		t.Errorf("guineken row wrong: %s", multi)
	}
	// Aggregates interleaved with the grouping column reorder correctly.
	flipped := runSQL(t, "SELECT MIN(alcperc), brewery, COUNT(*) FROM beer GROUP BY brewery")
	if flipped.Multiplicity(tuple.New(
		value.NewFloat(5.0), value.NewString("guineken"), value.NewInt(2))) != 1 {
		t.Errorf("interleaved output wrong: %s", flipped)
	}
	// Global multi-aggregate without GROUP BY.
	global := runSQL(t, "SELECT COUNT(*), MIN(alcperc), MAX(alcperc) FROM beer")
	if global.Cardinality() != 1 || !global.Contains(tuple.New(
		value.NewInt(4), value.NewFloat(4.2), value.NewFloat(6.5))) {
		t.Errorf("global multi-aggregate = %s", global)
	}
	// Two unnamed COUNTs coexist (the second column is anonymous).
	double := runSQL(t, "SELECT COUNT(*), COUNT(name) FROM beer")
	if !double.Contains(tuple.New(value.NewInt(4), value.NewInt(4))) {
		t.Errorf("double count = %s", double)
	}
	// HAVING may use an aggregate that is not in the SELECT list: it rides as
	// a hidden trailing column and is stripped from the output.
	having := runSQL(t, "SELECT brewery, SUM(alcperc) FROM beer GROUP BY brewery HAVING COUNT(*) >= 2")
	if having.Cardinality() != 1 || !having.Contains(tuple.New(value.NewString("guineken"), value.NewFloat(11.5))) {
		t.Errorf("HAVING with hidden aggregate = %s", having)
	}
}

// TestGroupByWithoutAggregateSQL checks GROUP BY with no aggregate translates
// to a distinct projection (π + δ): one output row per group.
func TestGroupByWithoutAggregateSQL(t *testing.T) {
	r := runSQL(t, "SELECT brewery FROM beer GROUP BY brewery")
	if r.Cardinality() != 3 || r.DistinctCount() != 3 {
		t.Errorf("GROUP BY without aggregate = %s, want 3 distinct rows", r)
	}
	if !r.Contains(tuple.New(value.NewString("guineken"))) {
		t.Errorf("missing group: %s", r)
	}
	// Projecting a subset of the grouping columns keeps one row per group
	// (duplicates across groups allowed, as SQL prescribes).
	sub := runSQL(t, "SELECT name FROM beer GROUP BY name, brewery")
	if sub.Cardinality() != 4 {
		t.Errorf("subset projection = %s, want one row per (name, brewery) group", sub)
	}
	// HAVING on grouping columns still applies.
	hav := runSQL(t, "SELECT brewery FROM beer GROUP BY brewery HAVING brewery <> 'guineken'")
	if hav.Cardinality() != 2 {
		t.Errorf("HAVING on aggregate-free grouping = %s", hav)
	}
	// HAVING with an aggregate over an aggregate-free SELECT uses the groupby
	// path and strips the hidden column.
	havAgg := runSQL(t, "SELECT brewery FROM beer GROUP BY brewery HAVING COUNT(*) >= 2")
	if havAgg.Cardinality() != 1 || !havAgg.Contains(tuple.New(value.NewString("guineken"))) {
		t.Errorf("HAVING aggregate over aggregate-free SELECT = %s", havAgg)
	}
}

func TestInsertDeleteUpdateSQL(t *testing.T) {
	src := beerSource()
	cat := eval.CatalogOf(src)

	ins, err := CompileStatement("INSERT INTO beer VALUES ('radler', 'brolsch', 2.0), ('radler', 'brolsch', 2.0)", cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ins.(stmt.Insert); !ok {
		t.Fatalf("expected Insert, got %T", ins)
	}

	del, err := CompileStatement("DELETE FROM beer WHERE brewery = 'guinness'", cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := del.(stmt.Delete); !ok {
		t.Fatalf("expected Delete, got %T", del)
	}
	delAll, err := CompileStatement("DELETE FROM beer", cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := delAll.(stmt.Delete); !ok {
		t.Fatalf("expected Delete, got %T", delAll)
	}

	// The paper's Example 4.1 in its SQL form.
	up, err := CompileStatement("UPDATE beer SET alcperc = alcperc * 1.1 WHERE brewery = 'guineken'", cat)
	if err != nil {
		t.Fatal(err)
	}
	update, ok := up.(stmt.Update)
	if !ok {
		t.Fatalf("expected Update, got %T", up)
	}
	if len(update.Items) != 3 {
		t.Fatalf("update items = %d", len(update.Items))
	}

	// Execute the whole script against a fake context and verify the effects.
	ctx := newFakeContext(src)
	prog, _, err := CompileScript(`
		INSERT INTO beer VALUES ('radler', 'brolsch', 2.0);
		DELETE FROM beer WHERE brewery = 'guinness';
		UPDATE beer SET alcperc = alcperc * 1.1 WHERE brewery = 'guineken';
		SELECT brewery, COUNT(*) FROM beer GROUP BY brewery;
	`, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog) != 4 {
		t.Fatalf("program length = %d", len(prog))
	}
	if err := prog.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	beer, _ := ctx.src.Relation("beer")
	if beer.Cardinality() != 4 {
		t.Errorf("|beer| after script = %d, want 4", beer.Cardinality())
	}
	var updated bool
	beer.Each(func(tp tuple.Tuple, _ uint64) bool {
		if tp.At(0).Str() == "bock" {
			alc := tp.At(2).Float()
			updated = alc > 7.14 && alc < 7.16
		}
		return true
	})
	if !updated {
		t.Error("UPDATE must raise bock's alcperc to 7.15")
	}
	if len(ctx.outputs) != 1 || ctx.outputs[0].Cardinality() != 2 {
		t.Errorf("script query output = %v", ctx.outputs)
	}
}

func TestQueryAsStatement(t *testing.T) {
	src := beerSource()
	s, err := CompileStatement("SELECT name FROM beer", eval.CatalogOf(src))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(stmt.Query); !ok {
		t.Fatalf("expected Query, got %T", s)
	}
}

func TestCompileErrors(t *testing.T) {
	cat := eval.CatalogOf(beerSource())
	bad := []string{
		"",
		"SELEC name FROM beer",
		"SELECT FROM beer",
		"SELECT name beer",
		"SELECT name FROM",
		"SELECT name FROM wine",
		"SELECT nosuch FROM beer",
		"SELECT name FROM beer WHERE",
		"SELECT name FROM beer WHERE name >",
		"SELECT name FROM beer WHERE name = 'x' extra",
		"SELECT name FROM beer GROUP BY",
		"SELECT name, AVG(alcperc) FROM beer GROUP BY brewery",                      // name not grouped
		"SELECT AVG(*) FROM beer",                                                   // * only for COUNT
		"SELECT AVG(alcperc + 1) FROM beer",                                         // aggregate args must be columns
		"SELECT * FROM beer GROUP BY brewery",                                       // star with grouping
		"SELECT name FROM beer, brewery WHERE name = 'x'",                           // ambiguous column
		"SELECT brewery.alcperc FROM beer, brewery",                                 // wrong qualifier
		"SELECT name FROM beer WHERE AVG(alcperc) > 5",                              // aggregate in WHERE
		"SELECT brewery, SUM(alcperc) FROM beer GROUP BY brewery HAVING city = 'x'", // bad HAVING column
		"INSERT INTO wine VALUES (1)",
		"INSERT INTO beer VALUES ('x', 'y')", // arity mismatch
		"INSERT INTO beer VALUES",
		"INSERT beer VALUES ('x', 'y', 1)",
		"DELETE FROM wine",
		"DELETE beer",
		"UPDATE wine SET x = 1",
		"UPDATE beer SET nosuch = 1",
		"UPDATE beer SET alcperc 5",
		"UPDATE beer SET alcperc = AVG(alcperc)",
		"DROP TABLE beer",
		"SELECT name FROM beer JOIN brewery",        // JOIN requires ON
		"SELECT name FROM beer WHERE 'x'",           // non-boolean condition
		"SELECT name FROM beer WHERE 5 = 'x' AND #", // lexer error
	}
	for _, sql := range bad {
		if _, err := CompileStatement(sql, cat); err == nil {
			t.Errorf("statement %q should fail to compile", sql)
		}
	}
	// CompileQuery rejects non-SELECT statements.
	if _, err := CompileQuery("DELETE FROM beer", cat); err == nil {
		t.Error("CompileQuery must reject DML")
	}
	// Errors carry positions and the sql: prefix.
	_, err := CompileQuery("SELECT nosuch FROM beer", cat)
	if err == nil || !strings.HasPrefix(err.Error(), "sql:") {
		t.Errorf("error format: %v", err)
	}
	// CompileScript reports which statement failed.
	_, _, err = CompileScript("SELECT name FROM beer; SELECT nosuch FROM beer", cat)
	if err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Errorf("script error should identify the failing statement: %v", err)
	}
}

// TestSplitStatements checks how CompileScript cuts a script into
// statements: on ";" tokens of the one token stream, so neither a string
// literal nor a comment holding ";" or "'" moves a boundary, and error
// positions count from the script's start.
func TestSplitStatements(t *testing.T) {
	cat := eval.CatalogOf(beerSource())
	count := func(script string) int {
		t.Helper()
		prog, _, err := CompileScript(script, cat)
		if err != nil {
			t.Errorf("%q: %v", script, err)
		}
		return len(prog)
	}
	prog, _, err := CompileScript("SELECT 'a;b' FROM beer; DELETE FROM beer;;", cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog) != 2 {
		t.Fatalf("statements = %d: %v", len(prog), prog)
	}
	if !strings.Contains(prog[0].String(), "a;b") {
		t.Errorf("semicolons inside string literals must not split: %v", prog[0])
	}
	if n := count("  "); n != 0 {
		t.Errorf("blank scripts have no statements, got %d", n)
	}
	if n := count("INSERT INTO beer VALUES ('x', 'y', 1.0); -- a; comment"); n != 1 {
		t.Errorf("a trailing comment holding ';' is no statement: got %d statements", n)
	}
	if n := count("DELETE FROM beer -- don't\n;\nSELECT name FROM beer;"); n != 2 {
		t.Errorf("a quote inside a comment must not swallow a boundary: got %d statements", n)
	}
	_, _, err = CompileScript("SELECT name FROM beer;\nSELECT nosuch\n  FROM beer;", cat)
	var lerr *lex.Error
	if err == nil || !strings.Contains(err.Error(), `in "SELECT nosuch\n  FROM beer": sql: 2:8: unknown column "nosuch"`) ||
		!errors.As(err, &lerr) || lerr.Line != 2 || lerr.Col != 8 {
		t.Errorf("the second statement's error must carry its script-wide line:col, got %v", err)
	}
}

// fakeContext is a minimal stmt.Context over a MapSource.
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

// TestOrderByLimitCompile checks the resolution of ORDER BY / LIMIT / OFFSET
// into the presentation clause against the output schema.
func TestOrderByLimitCompile(t *testing.T) {
	cat := eval.CatalogOf(beerSource())

	q, err := CompileQuery("SELECT name, alcperc FROM beer ORDER BY alcperc DESC, name LIMIT 3 OFFSET 1", cat)
	if err != nil {
		t.Fatal(err)
	}
	want := plan.Clause{Order: []plan.SortKey{{Col: 1, Desc: true}, {Col: 0}}, Limit: 3, HasLimit: true, Offset: 1}
	if len(q.Mods.Order) != 2 || q.Mods.Order[0] != want.Order[0] || q.Mods.Order[1] != want.Order[1] ||
		q.Mods.Limit != want.Limit || !q.Mods.HasLimit || q.Mods.Offset != want.Offset {
		t.Errorf("modifiers = %+v, want %+v", q.Mods, want)
	}

	// 1-based SELECT-list positions resolve too.
	q, err = CompileQuery("SELECT name, alcperc FROM beer ORDER BY 2 DESC", cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Mods.Order) != 1 || q.Mods.Order[0] != (plan.SortKey{Col: 1, Desc: true}) {
		t.Errorf("positional order = %+v", q.Mods.Order)
	}

	// ORDER BY resolves against the *output* schema, aliases included.
	q, err = CompileQuery("SELECT name AS n FROM beer ORDER BY n", cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Mods.Order) != 1 || q.Mods.Order[0].Col != 0 {
		t.Errorf("alias order = %+v", q.Mods.Order)
	}

	// Grouped queries order by grouping columns or the aggregate.
	q, err = CompileQuery("SELECT brewery, COUNT(*) AS beers FROM beer GROUP BY brewery ORDER BY beers DESC LIMIT 2", cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Mods.Order) != 1 || q.Mods.Order[0] != (plan.SortKey{Col: 1, Desc: true}) || q.Mods.Limit != 2 {
		t.Errorf("grouped order = %+v", q.Mods)
	}

	bad := []string{
		"SELECT name FROM beer ORDER BY 2",            // position out of range
		"SELECT name FROM beer ORDER BY 0",            // positions are 1-based
		"SELECT name FROM beer LIMIT -1",              // negative limit
		"SELECT name FROM beer LIMIT 2 OFFSET -3",     // negative offset
		"SELECT name FROM beer ORDER BY name LIMIT x", // non-numeric limit
		"SELECT name FROM beer OFFSET 0 OFFSET 3",     // duplicate OFFSET
		"SELECT name FROM beer LIMIT 1 LIMIT 2",       // duplicate LIMIT
		// Unresolvable key expressions still fail.
		"SELECT b.name FROM beer b ORDER BY nosuch.name",
		// Grouping collapses the FROM columns, so only output columns and
		// positions can order grouped queries.
		"SELECT brewery, COUNT(*) FROM beer GROUP BY brewery ORDER BY alcperc",
		// Hidden sort columns would change what DISTINCT deduplicates.
		"SELECT DISTINCT name FROM beer ORDER BY alcperc",
	}
	for _, sql := range bad {
		if _, err := CompileQuery(sql, cat); err == nil {
			t.Errorf("%q should fail to compile", sql)
		}
	}

	// Statement-level compilation carries the clause on the query statement,
	// which the plan's Sort root executes...
	s, err := CompileStatement("SELECT name FROM beer ORDER BY name DESC LIMIT 1 OFFSET 2", cat)
	if err != nil {
		t.Fatal(err)
	}
	if q, ok := s.(stmt.Query); !ok || len(q.Mods.Order) != 1 || q.Mods.Order[0] != (plan.SortKey{Col: 0, Desc: true}) ||
		!q.Mods.HasLimit || q.Mods.Limit != 1 || q.Mods.Offset != 2 {
		t.Errorf("CompileStatement clause = %+v", s)
	}
	// ...and CompileScript carries it through per query statement.
	prog, mods, err := CompileScript(
		"INSERT INTO beer VALUES ('x', 'y', 1.0); SELECT name FROM beer LIMIT 2; SELECT name FROM beer", cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog) != 3 || len(mods) != 2 {
		t.Fatalf("program %d statements, %d query modifiers", len(prog), len(mods))
	}
	if !mods[0].HasLimit || mods[0].Limit != 2 || mods[1].Active() {
		t.Errorf("script modifiers = %+v", mods)
	}

	// A table alias is still allowed right before the new clauses.
	if _, err := CompileQuery("SELECT b.name FROM beer b ORDER BY name", cat); err != nil {
		t.Errorf("alias before ORDER BY: %v", err)
	}
}

// TestOrderByExpressionKeys checks ORDER BY keys that are not output columns
// compile onto hidden trailing sort columns over the FROM schema.
func TestOrderByExpressionKeys(t *testing.T) {
	src := beerSource()
	cat := eval.CatalogOf(src)

	// A non-selected column becomes one hidden trailing key column.
	q, err := CompileQuery("SELECT name FROM beer ORDER BY alcperc DESC", cat)
	if err != nil {
		t.Fatal(err)
	}
	if q.Mods.Hidden != 1 || len(q.Mods.Order) != 1 || q.Mods.Order[0] != (plan.SortKey{Col: 1, Desc: true}) {
		t.Fatalf("modifiers = %+v", q.Mods)
	}
	s, err := q.Expr.Schema(cat)
	if err != nil {
		t.Fatal(err)
	}
	if s.Arity() != 2 || s.Attribute(0).Name != "name" || s.Attribute(1).Name != "" {
		t.Errorf("extended schema = %s", s)
	}
	out, err := oracle.Eval(q.Expr, src)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cardinality() != 4 {
		t.Errorf("result = %s", out)
	}

	// Mixed output-column and expression keys: the unqualified output name
	// sorts in place, the arithmetic expression rides as a hidden column.
	q, err = CompileQuery("SELECT name FROM beer b ORDER BY name, b.alcperc * -1", cat)
	if err != nil {
		t.Fatal(err)
	}
	if q.Mods.Hidden != 1 || len(q.Mods.Order) != 2 ||
		q.Mods.Order[0] != (plan.SortKey{Col: 0}) || q.Mods.Order[1] != (plan.SortKey{Col: 1}) {
		t.Errorf("mixed modifiers = %+v", q.Mods)
	}

	// Qualified references are never output columns (qualifiers are gone
	// after projection), so they resolve over FROM as hidden keys.
	q, err = CompileQuery("SELECT b.name FROM beer b ORDER BY b.name", cat)
	if err != nil {
		t.Fatal(err)
	}
	if q.Mods.Hidden != 1 || len(q.Mods.Order) != 1 || q.Mods.Order[0] != (plan.SortKey{Col: 1}) {
		t.Errorf("qualified modifiers = %+v", q.Mods)
	}

	// SELECT * grows an identity projection for the hidden key.
	q, err = CompileQuery("SELECT * FROM beer ORDER BY alcperc + 1 DESC", cat)
	if err != nil {
		t.Fatal(err)
	}
	if q.Mods.Hidden != 1 || q.Mods.Order[0] != (plan.SortKey{Col: 3, Desc: true}) {
		t.Fatalf("star modifiers = %+v", q.Mods)
	}
	s, err = q.Expr.Schema(cat)
	if err != nil {
		t.Fatal(err)
	}
	if s.Arity() != 4 || s.Attribute(0).Name != "name" || s.Attribute(2).Name != "alcperc" {
		t.Errorf("star extended schema = %s", s)
	}
}
