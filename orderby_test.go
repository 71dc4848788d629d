package mra

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"mra/internal/multiset"
	"mra/internal/plan"
	"mra/internal/schema"
	"mra/internal/tuple"
	"mra/internal/value"
)

// TestQuerySQLOrderByLimit exercises the new ORDER BY / LIMIT / OFFSET
// support end to end through the public SQL API.
func TestQuerySQLOrderByLimit(t *testing.T) {
	db := explainBeerDB(t)

	res, err := db.QuerySQL("SELECT name, alcperc FROM beer ORDER BY alcperc DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 2 || res.Len() != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0] != "tripel" || rows[1][0] != "bock" {
		t.Errorf("descending order wrong: %v", rows)
	}

	// Ascending with OFFSET; ties (two 'pils' rows) stay deterministic via
	// the canonical order.
	res, err = db.QuerySQL("SELECT name FROM beer ORDER BY name OFFSET 1")
	if err != nil {
		t.Fatal(err)
	}
	rows = res.Rows()
	if len(rows) != 4 || rows[0][0] != "pils" || rows[1][0] != "pils" || rows[3][0] != "tripel" {
		t.Errorf("offset rows = %v", rows)
	}

	// LIMIT counts occurrences: duplicates are limited away individually.
	res, err = db.QuerySQL("SELECT name FROM beer ORDER BY name LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 || res.Multiplicity("bock") != 1 || res.Multiplicity("pils") != 1 {
		t.Errorf("limited result = %s", res)
	}

	// The table rendering follows the requested order, not canonical order.
	res, err = db.QuerySQL("SELECT name, alcperc FROM beer ORDER BY alcperc DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	table := res.Table()
	lines := strings.Split(strings.TrimSpace(table), "\n")
	if !strings.HasPrefix(lines[2], "tripel") || !strings.HasPrefix(lines[3], "bock") {
		t.Errorf("table order wrong:\n%s", table)
	}

	// ORDER BY on a non-selected column computes it as a hidden sort column
	// through the physical Sort operator and strips it from the presentation.
	res, err = db.QuerySQL("SELECT name FROM beer ORDER BY alcperc DESC")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Columns(); len(got) != 1 || got[0] != "name" {
		t.Errorf("hidden sort column leaked into the output: %v", got)
	}
	rows = res.Rows()
	if len(rows) != 5 || rows[0][0] != "tripel" || rows[1][0] != "bock" || rows[4][0] != "stout" {
		t.Errorf("hidden-column order wrong: %v", rows)
	}
	if res.Len() != 5 || res.Multiplicity("pils") != 2 {
		t.Errorf("hidden-column result = %s", res)
	}

	// Arbitrary key expressions work too, windowing included.
	res, err = db.QuerySQL("SELECT name FROM beer ORDER BY alcperc * -1 LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	rows = res.Rows()
	if len(rows) != 2 || rows[0][0] != "tripel" || rows[1][0] != "bock" || res.Len() != 2 {
		t.Errorf("expression-key order wrong: %v", rows)
	}

	// Grouped-query keys must be output columns, grouping columns or
	// aggregates — a plain FROM column the grouping collapsed away fails.
	if _, err := db.QuerySQL("SELECT brewery, COUNT(*) FROM beer GROUP BY brewery ORDER BY alcperc"); err == nil {
		t.Error("ORDER BY on a non-output column of a grouped query must fail")
	}

	// OFFSET past the end yields an empty result, not an error.
	res, err = db.QuerySQL("SELECT name FROM beer ORDER BY name OFFSET 99")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Errorf("offset past end = %s", res)
	}

	// ExecSQL (the script path the shell uses) honours each query's clause.
	results, err := db.ExecSQL("SELECT name, alcperc FROM beer ORDER BY alcperc DESC LIMIT 1; SELECT name FROM beer")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Len() != 1 || results[0].Rows()[0][0] != "tripel" {
		t.Errorf("script results = %v", results[0].Rows())
	}
	if results[1].Len() != 5 {
		t.Errorf("unmodified script query = %d rows", results[1].Len())
	}

	// An explicit transaction's single statement carries its clause too:
	// the output is the window, in order.
	tx := db.Begin()
	defer tx.Abort()
	if err := tx.ExecSQL("SELECT name FROM beer ORDER BY name DESC LIMIT 2"); err != nil {
		t.Fatalf("Tx.ExecSQL with ORDER BY: %v", err)
	}
	out := tx.Outputs()[0]
	if got := fmt.Sprint(out.Rows()); got != "[[tripel] [stout]]" || out.Len() != 2 {
		t.Errorf("Tx.ExecSQL ordered output = %s, len %d", got, out.Len())
	}
}

// TestTxOutputsPresentTheClause checks a transaction's outputs present what
// its statements returned: the clause's window, in order, without the hidden
// sort column — after ExecSQLScript and after ExecSQL alike.
func TestTxOutputsPresentTheClause(t *testing.T) {
	const q = "select a from t order by b limit 1"
	db := Open()
	db.MustCreateRelation("t", Col("a", Int), Col("b", Int))
	if err := db.InsertValues("t", []any{1, 30}, []any{2, 20}, []any{3, 10}); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	defer tx.Abort()
	script, err := tx.ExecSQLScript(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.ExecSQL(q); err != nil {
		t.Fatal(err)
	}
	want := "[a] [[3]] 1"
	if got := fmt.Sprint(script[0].Columns(), script[0].Rows(), script[0].Len()); got != want {
		t.Fatalf("ExecSQLScript = %s, want %s", got, want)
	}
	outs := tx.Outputs()
	if len(outs) != 2 {
		t.Fatalf("%d outputs, want 2", len(outs))
	}
	for i, out := range outs {
		if got := fmt.Sprint(out.Columns(), out.Rows(), out.Len()); got != want {
			t.Errorf("Outputs()[%d] = %s, want %s", i, got, want)
		}
	}
}

// hugeBagDB holds m with 256 copies of (1), so a four-way product of m is one
// distinct row with multiplicity 2^32, under a 64 MiB memory budget.
func hugeBagDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	db.MustCreateRelation("m", Col("a", Int))
	rows := make([][]any, 256)
	for i := range rows {
		rows[i] = []any{1}
	}
	if err := db.InsertValues("m", rows...); err != nil {
		t.Fatal(err)
	}
	db.SetMemoryLimit(64 << 20)
	return db
}

// TestLimitOverHugeBag checks LIMIT cuts a window of 2^32 occurrences by
// counts: with and without ORDER BY the result is one row, and nothing
// expands the occurrences it skips.
func TestLimitOverHugeBag(t *testing.T) {
	db := hugeBagDB(t)
	for _, q := range []string{
		"select m1.a from m m1, m m2, m m3, m m4 limit 1",
		"select m1.a from m m1, m m2, m m3, m m4 order by 1 limit 1",
	} {
		res, err := db.QuerySQL(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got := fmt.Sprint(res.Rows()); res.Len() != 1 || got != "[[1]]" {
			t.Errorf("%s = %s, len %d; want one row", q, got, res.Len())
		}
	}
}

// TestOrderByHugeBagStaysCounted checks an ORDER BY result of 2^32
// occurrences of one row stays one counted run: Len and DistinctLen answer
// without expanding it.
func TestOrderByHugeBagStaysCounted(t *testing.T) {
	db := hugeBagDB(t)
	res, err := db.QuerySQL("select m1.a from m m1, m m2, m m3, m m4 order by 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1<<32 || res.DistinctLen() != 1 {
		t.Errorf("Len = %d, DistinctLen = %d; want 2^32 and 1", res.Len(), res.DistinctLen())
	}
}

// TestOrderByChargesTheBudgetOnEveryPath pins the one ORDER BY
// implementation: on the query path, the script path and inside an explicit
// transaction alike, the query sorts through the physical Sort operator,
// which charges the memory budget.  A 5000-row table fits a 64 KiB budget
// when scanned, and sorting it trips the budget.
func TestOrderByChargesTheBudgetOnEveryPath(t *testing.T) {
	const q = "select a, b from t order by b desc, a"
	db := Open()
	db.MustCreateRelation("t", Col("a", Int), Col("b", Int))
	rows := make([][]any, 5000)
	for i := range rows {
		rows[i] = []any{i, i % 97}
	}
	if err := db.InsertValues("t", rows...); err != nil {
		t.Fatal(err)
	}
	db.SetMemoryLimit(64 << 10)
	if _, err := db.QuerySQL("select a, b from t"); err != nil {
		t.Fatalf("an unordered scan must fit the budget: %v", err)
	}
	if _, err := db.QuerySQL(q); !errors.Is(err, plan.ErrMemoryBudget) {
		t.Errorf("QuerySQL: err = %v, want the memory budget", err)
	}
	if _, err := db.ExecSQL(q); !errors.Is(err, plan.ErrMemoryBudget) {
		t.Errorf("ExecSQL: err = %v, want the memory budget", err)
	}
	tx := db.Begin()
	if _, err := tx.ExecSQLScript(q); !errors.Is(err, plan.ErrMemoryBudget) {
		t.Errorf("Tx.ExecSQLScript: err = %v, want the memory budget", err)
	}
	tx.Abort()

	// Unbudgeted, every path presents the same order.
	db.SetMemoryLimit(0)
	res, err := db.QuerySQL(q)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Rows()
	if want[0][0] != int64(96) || want[0][1] != int64(96) || want[1][0] != int64(193) {
		t.Fatalf("first rows = %v, want b descending then a ascending", want[:2])
	}
	script, err := db.ExecSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	tx = db.Begin()
	defer tx.Abort()
	inTx, err := tx.ExecSQLScript(q)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][][]any{"ExecSQL": script[0].Rows(), "Tx.ExecSQLScript": inTx[0].Rows()} {
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s presents a different order than QuerySQL", name)
		}
	}
}

// TestResultLenSaturates pins the fix for the unchecked uint64→int cast:
// cardinalities beyond the int range saturate instead of wrapping negative.
func TestResultLenSaturates(t *testing.T) {
	rel := multiset.New(schema.Anonymous(schema.Attribute{Name: "x", Type: value.KindInt}))
	rel.Add(tuple.Ints(1), math.MaxUint64)
	res := &Result{rel: rel}
	if got := res.Len(); got != math.MaxInt {
		t.Errorf("Len = %d, want math.MaxInt", got)
	}
	if got := res.DistinctLen(); got != 1 {
		t.Errorf("DistinctLen = %d", got)
	}
}

// TestOrderByAggregate exercises aggregate-aware ORDER BY key translation on
// grouped queries: keys repeating a SELECT aggregate sort on that output
// column, and aggregates absent from the SELECT list ride as hidden trailing
// aggregate columns that are stripped before presentation.
func TestOrderByAggregate(t *testing.T) {
	db := explainBeerDB(t)

	// ORDER BY an aggregate that is in the SELECT list (no hidden column).
	res, err := db.QuerySQL("SELECT brewery, COUNT(*) FROM beer GROUP BY brewery ORDER BY COUNT(*) DESC, brewery")
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 4 || rows[0][0] != "guineken" || rows[0][1] != int64(2) || rows[1][0] != "brolsch" {
		t.Errorf("ORDER BY COUNT(*) DESC rows = %v", rows)
	}

	// ORDER BY an aggregate that is NOT in the SELECT list: hidden trailing
	// aggregate column, stripped from the presented rows.
	res, err = db.QuerySQL("SELECT brewery, COUNT(*) FROM beer GROUP BY brewery ORDER BY SUM(alcperc) DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	rows = res.Rows()
	if len(rows) != 2 || len(rows[0]) != 2 || rows[0][0] != "guineken" || rows[1][0] != "westmalle" {
		t.Errorf("hidden SUM key rows = %v", rows)
	}

	// A grouping column as the key of an aggregate-free GROUP BY.
	res, err = db.QuerySQL("SELECT brewery FROM beer GROUP BY brewery ORDER BY COUNT(*) DESC, brewery LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	rows = res.Rows()
	if len(rows) != 1 || len(rows[0]) != 1 || rows[0][0] != "guineken" {
		t.Errorf("aggregate key over aggregate-free SELECT = %v", rows)
	}

	// DISTINCT grouped queries may sort on aggregates the SELECT list already
	// computes, but hidden aggregate keys would change what DISTINCT
	// deduplicates and stay rejected.
	if _, err := db.QuerySQL("SELECT DISTINCT brewery, COUNT(*) AS n FROM beer GROUP BY brewery ORDER BY COUNT(*) DESC"); err != nil {
		t.Errorf("DISTINCT with a SELECT-matched aggregate key: %v", err)
	}
	if _, err := db.QuerySQL("SELECT DISTINCT brewery FROM beer GROUP BY brewery ORDER BY COUNT(*)"); err == nil {
		t.Error("DISTINCT with a hidden aggregate key must fail")
	}

	// The hidden-aggregate path composes with parallel execution.
	db.SetWorkers(4)
	res, err = db.QuerySQL("SELECT brewery, COUNT(*), AVG(alcperc) FROM beer GROUP BY brewery ORDER BY MAX(alcperc) DESC LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	rows = res.Rows()
	if len(rows) != 1 || rows[0][0] != "westmalle" {
		t.Errorf("parallel hidden-key rows = %v", rows)
	}
}

// TestOrderByIntsBeyond2To53 sorts integers that share a float64 image:
// 2^53 and 2^53+1 are distinct int64s and must sort apart, in both
// directions.
func TestOrderByIntsBeyond2To53(t *testing.T) {
	db := Open()
	db.MustCreateRelation("t", Col("a", Int))
	if err := db.InsertValues("t", []any{int64(1 << 53)}, []any{int64(1<<53 + 1)}, []any{int64(1<<53 - 1)}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sql  string
		want []int64
	}{
		{"select a from t order by a desc", []int64{1<<53 + 1, 1 << 53, 1<<53 - 1}},
		{"select a from t order by a", []int64{1<<53 - 1, 1 << 53, 1<<53 + 1}},
	} {
		res, err := db.QuerySQL(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		var got []int64
		for _, row := range res.Rows() {
			got = append(got, row[0].(int64))
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s = %v, want %v", c.sql, got, c.want)
		}
	}
}
