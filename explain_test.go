package mra

import (
	"strings"
	"testing"

	"mra/internal/oracle"
	"mra/internal/xraparse"
)

// explainBeerDB builds the paper's beer/brewery running example with the
// exact data of the eval-package tests, so the plan renderings (which include
// cardinality estimates fed from the real table sizes) are deterministic.
func explainBeerDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	db.MustCreateRelation("beer",
		Col("name", String), Col("brewery", String), Col("alcperc", Float))
	db.MustCreateRelation("brewery",
		Col("name", String), Col("city", String), Col("country", String))
	db.MustExecXRA(`insert(beer, [
		('pils', 'guineken', 5.0), ('pils', 'brolsch', 5.2), ('bock', 'guineken', 6.5),
		('stout', 'guinness', 4.2), ('tripel', 'westmalle', 9.5)])`)
	db.MustExecXRA(`insert(brewery, [
		('guineken', 'amsterdam', 'netherlands'), ('brolsch', 'enschede', 'netherlands'),
		('guinness', 'dublin', 'ireland'), ('westmalle', 'malle', 'belgium')])`)
	return db
}

// TestExplainGoldenExample32 pins the logical rendering of the paper's
// Example 3.2 aggregation query Γ_{(country),AVG,alcperc}(beer ⋈ brewery):
// the expression as written, with no projection pushed below the group-by.
// ExampleDB_Explain pins its physical plan, a HashAggregate straight over
// the join.
func TestExplainGoldenExample32(t *testing.T) {
	db := explainBeerDB(t)
	ex, err := db.Explain("groupby[(%6),AVG,%3](join[%2 = %4](beer, brewery))")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ex.Logical, "groupby[(%6),AVG,%3](join[%2 = %4](beer, brewery))"; got != want {
		t.Errorf("logical plan:\n got %s\nwant %s", got, want)
	}
}

// TestExplainGoldenExample31 pins the logical rendering of the Example 3.1
// Dutch-beers query: the selection stays above the join as written.
// ExampleDB_Explain pins its physical plan, where the planner has pushed the
// selection below the join onto brewery.
func TestExplainGoldenExample31(t *testing.T) {
	db := explainBeerDB(t)
	ex, err := db.Explain("project[%1](select[%6 = 'netherlands'](join[%2 = %4](beer, brewery)))")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ex.Logical, "project[%1](select[%6 = 'netherlands'](join[%2 = %4](beer, brewery)))"; got != want {
		t.Errorf("logical plan:\n got %s\nwant %s", got, want)
	}
}

// TestExplainHonoursOptimizeFlag checks the physical plan follows the
// expression that actually runs: with no rewriting step before it, the
// planner folds σ over × into a hash join (a physical decision, not a
// rewrite).
func TestExplainHonoursOptimizeFlag(t *testing.T) {
	db := explainBeerDB(t)
	ex, err := db.Explain("select[%2 = %4](product(beer, brewery))")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.Physical, "HashJoin") {
		t.Errorf("physical plan should hash-join σ(×):\n%s", ex.Physical)
	}
}

// paperExamples are the paper's Examples 3.1 (σ below ⋈) and 3.2 (π below
// Γ), each as written and with its law applied by hand.
var paperExamples = []struct{ name, written, applied string }{
	{"3.1",
		"project[%1](select[%6 = 'netherlands'](join[%2 = %4](beer, brewery)))",
		"project[%1](join[%2 = %4](beer, select[%3 = 'netherlands'](brewery)))"},
	{"3.2",
		"groupby[(%6),AVG,%3](join[%2 = %4](beer, brewery))",
		"groupby[(%1),AVG,%2](project[%6,%3](join[%2 = %4](beer, brewery)))"},
}

// TestPaperExampleLaws holds Examples 3.1 and 3.2 as laws: the written and
// the law-applied form return the same bag under the oracle,
// and both return that bag through the facade at every gang width.  For
// Example 3.1 the planner compiles the written form to the law-applied
// form's physical plan.
func TestPaperExampleLaws(t *testing.T) {
	db := explainBeerDB(t)
	for _, ex := range paperExamples {
		var ref oracle.Bag
		for i, text := range []string{ex.written, ex.applied} {
			e, err := xraparse.ParseExpression(text)
			if err != nil {
				t.Fatal(err)
			}
			got, err := oracle.Eval(e, db.store)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				ref = got
			} else if !ref.Equal(got) {
				t.Errorf("Example %s: the oracle gives %s written and %s law-applied", ex.name, ref, got)
			}
		}
		for _, w := range []int{1, 2, 4, 8} {
			db.SetWorkers(w)
			for _, text := range []string{ex.written, ex.applied} {
				res, err := db.QueryXRA(text)
				if err != nil {
					t.Fatal(err)
				}
				if err := ref.Check(res.rel); err != nil {
					t.Errorf("Example %s at workers=%d: %s: %v", ex.name, w, text, err)
				}
			}
		}
		db.SetWorkers(1)
	}
	written, err := db.Explain(paperExamples[0].written)
	if err != nil {
		t.Fatal(err)
	}
	applied, err := db.Explain(paperExamples[0].applied)
	if err != nil {
		t.Fatal(err)
	}
	if written.Physical != applied.Physical {
		t.Errorf("Example 3.1 written form plans\n%s\nlaw-applied form plans\n%s", written.Physical, applied.Physical)
	}
}

// TestFallibleConjunctStaysAboveJoin pins where a selection conjunct that
// can fail to evaluate runs over a join: on the joined rows, as the written
// σ-over-join says, never on a leaf row the join drops.  a's row (2, 0) has
// no partner in b, so 10 / y never meets its zero; pushed below the join it
// would fail with a division by zero.  Every entry, at every gang width,
// returns the oracle's bag.
func TestFallibleConjunctStaysAboveJoin(t *testing.T) {
	db := Open()
	db.MustCreateRelation("a", Col("k", Int), Col("y", Int))
	db.MustCreateRelation("b", Col("k", Int))
	db.MustCreateRelation("c", Col("k", Int))
	if err := db.InsertValues("a", []any{1, 2}, []any{2, 0}, []any{3, 20}); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertValues("b", []any{1}, []any{3}); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertValues("c", []any{1}, []any{1}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"project[%1](select[10 / %2 > 1](join[%1 = %3](a, b)))",
		"project[%1](select[%1 = %3 and 10 / %2 > 1](product(a, b)))",
		"project[%1](select[10 / %2 > 1](join[%3 = %4](join[%1 = %3](a, b), c)))",
	} {
		e, err := xraparse.ParseExpression(q)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := oracle.Eval(e, db.store)
		if err != nil {
			t.Fatalf("oracle on %s: %v", q, err)
		}
		for _, w := range []int{1, 2, 4, 8} {
			db.SetWorkers(w)
			res, err := db.QueryXRA(q)
			if err != nil {
				t.Fatalf("%s at workers=%d: %v", q, w, err)
			}
			if err := ref.Check(res.rel); err != nil {
				t.Errorf("%s at workers=%d: %v", q, w, err)
			}
		}
		db.SetWorkers(1)
	}
	res, err := db.QuerySQL("select a.k from a, b where a.k = b.k and 10 / a.y > 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Errorf("SQL statement returned %d rows, want 1", res.Len())
	}
}

// TestExplainParallelExchange pins the explain rendering of a parallel plan:
// with workers configured and inputs above the planner's threshold, the
// physical tree shows the Merge gang boundary and the per-operand Partition
// exchanges on the join columns, and the query still computes the serial
// result.
func TestExplainParallelExchange(t *testing.T) {
	db := Open()
	db.MustCreateRelation("fact", Col("key", Int), Col("payload", Int))
	db.MustCreateRelation("dim", Col("key", Int), Col("attr", Int))
	factRows := make([][]any, 0, 1500)
	for i := 0; i < 1500; i++ {
		factRows = append(factRows, []any{i % 100, i})
	}
	dimRows := make([][]any, 0, 100)
	for i := 0; i < 100; i++ {
		dimRows = append(dimRows, []any{i, i * 10})
	}
	if err := db.InsertValues("fact", factRows...); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertValues("dim", dimRows...); err != nil {
		t.Fatal(err)
	}

	serial, err := db.QueryXRA("join[%1 = %3](fact, dim)")
	if err != nil {
		t.Fatal(err)
	}

	db.SetWorkers(4)
	if db.Workers() != 4 {
		t.Fatalf("Workers() = %d", db.Workers())
	}
	ex, err := db.Explain("join[%1 = %3](fact, dim)")
	if err != nil {
		t.Fatal(err)
	}
	if ex.Workers != 4 {
		t.Errorf("Explain.Workers = %d", ex.Workers)
	}
	wantPhysical := strings.Join([]string{
		"Merge [workers=4]  (est~15000 rows, act=1500)",
		"└─ HashJoin [%1 = %3] build=right shared  (est~15000 rows, act=1500)",
		"   ├─ Partition [morsel size=64]  (est=1500 rows, act=1500)",
		"   │  └─ Scan fact  (est=1500 rows)",
		"   └─ Scan dim  (est=100 rows)",
	}, "\n")
	if ex.Physical != wantPhysical {
		t.Errorf("parallel physical plan:\n%s\nwant:\n%s", ex.Physical, wantPhysical)
	}

	// The parallel execution produces the serial multi-set.
	parallel, err := db.QueryXRA("join[%1 = %3](fact, dim)")
	if err != nil {
		t.Fatal(err)
	}
	if parallel.Len() != serial.Len() || parallel.DistinctLen() != serial.DistinctLen() {
		t.Errorf("parallel result %d/%d rows, serial %d/%d",
			parallel.Len(), parallel.DistinctLen(), serial.Len(), serial.DistinctLen())
	}

	// Small inputs stay serial: no exchange operators below the threshold.
	exSmall, err := db.Explain("select[%2 < 50](dim)")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(exSmall.Physical, "Merge") {
		t.Errorf("a 100-tuple pipeline must stay serial:\n%s", exSmall.Physical)
	}
}

// TestExplainTwoPhaseAggregate pins the explain rendering of the two-phase
// parallel aggregate: a GroupMerge gang boundary above a partial
// HashAggregate whose input is morsel-partitioned.  Workers pre-aggregate
// their morsels into partial states; the GroupMerge merges the per-worker
// partial groups — which is also what makes the global (ungrouped) aggregate
// parallel at all.
func TestExplainTwoPhaseAggregate(t *testing.T) {
	db := Open()
	db.MustCreateRelation("fact", Col("key", Int), Col("payload", Int))
	factRows := make([][]any, 0, 1500)
	for i := 0; i < 1500; i++ {
		factRows = append(factRows, []any{i % 100, i})
	}
	if err := db.InsertValues("fact", factRows...); err != nil {
		t.Fatal(err)
	}
	serialGrouped, err := db.QueryXRA("groupby[(%1),SUM,%2](fact)")
	if err != nil {
		t.Fatal(err)
	}

	db.SetWorkers(4)
	ex, err := db.Explain("groupby[(%1),SUM,%2](fact)")
	if err != nil {
		t.Fatal(err)
	}
	// The partial aggregate shows act=0: it hands per-worker group tables to
	// the GroupMerge rather than emitting tuples, so the merge reports the
	// actual group count and the partial reports none.
	wantGrouped := strings.Join([]string{
		"GroupMerge [workers=4]  (est~300 rows, act=100)",
		"└─ HashAggregate [(%1) SUM(%2)] partial  (est~300 rows, act=0)",
		"   └─ Partition [morsel size=64]  (est=1500 rows, act=1500)",
		"      └─ Scan fact  (est=1500 rows)",
	}, "\n")
	if ex.Physical != wantGrouped {
		t.Errorf("two-phase grouped plan:\n%s\nwant:\n%s", ex.Physical, wantGrouped)
	}

	exGlobal, err := db.Explain("groupby[(),CNT,%1,MAX,%2](fact)")
	if err != nil {
		t.Fatal(err)
	}
	wantGlobal := strings.Join([]string{
		"GroupMerge [workers=4]  (est~1 rows, act=1)",
		"└─ HashAggregate [() CNT(%1), MAX(%2)] partial  (est~1 rows, act=0)",
		"   └─ Partition [morsel size=64]  (est=1500 rows, act=1500)",
		"      └─ Scan fact  (est=1500 rows)",
	}, "\n")
	if exGlobal.Physical != wantGlobal {
		t.Errorf("two-phase global plan:\n%s\nwant:\n%s", exGlobal.Physical, wantGlobal)
	}

	// The rendered plan executes to the serial result.
	parallelGrouped, err := db.QueryXRA("groupby[(%1),SUM,%2](fact)")
	if err != nil {
		t.Fatal(err)
	}
	if parallelGrouped.Len() != serialGrouped.Len() || parallelGrouped.DistinctLen() != 100 {
		t.Errorf("two-phase grouped result %d/%d rows, serial %d/%d",
			parallelGrouped.Len(), parallelGrouped.DistinctLen(), serialGrouped.Len(), serialGrouped.DistinctLen())
	}
	global, err := db.QuerySQL("SELECT COUNT(*), MAX(payload) FROM fact")
	if err != nil {
		t.Fatal(err)
	}
	if rows := global.Rows(); len(rows) != 1 || rows[0][0] != int64(1500) || rows[0][1] != int64(1499) {
		t.Errorf("parallel global aggregate rows = %v", global.Rows())
	}
}

// TestExplainLiteralRelation pins the rendering of a literal relation's leaf:
// Values with its row count, duplicates included, under the operator that
// reads it.
func TestExplainLiteralRelation(t *testing.T) {
	ex, err := Open().Explain("select[%2 > 1]([(1, 2), (3, 4), (3, 4)])")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ex.Logical, "select[%2 > 1](literal[3 rows])"; got != want {
		t.Errorf("logical plan:\n got %s\nwant %s", got, want)
	}
	want := strings.Join([]string{
		"Filter [%2 > 1]  (est~1 rows, act=3)",
		"└─ Values (3 rows)  (est=3 rows)",
	}, "\n")
	if ex.Physical != want {
		t.Errorf("physical plan:\n%s\nwant:\n%s", ex.Physical, want)
	}
}
