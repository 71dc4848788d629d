package mra

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mra/internal/algebra"
	"mra/internal/scalar"
	"mra/internal/value"
)

// accountDB builds account(id, owner, balance) with n rows, balance 10·id.
func accountDB(t *testing.T, n int) *DB {
	t.Helper()
	db := Open()
	db.MustCreateRelation("account", Col("id", Int), Col("owner", String), Col("balance", Float))
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{i, fmt.Sprintf("owner%d", i), float64(10 * i)}
	}
	if err := db.InsertValues("account", rows...); err != nil {
		t.Fatal(err)
	}
	return db
}

// balanceOf returns the balance of the one row a point read returned, and
// fails unless exactly one row came back.
func balanceOf(t *testing.T, res *Result, err error) float64 {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 1 {
		t.Fatalf("point read returned %v, want one row", rows)
	}
	return rows[0][len(rows[0])-1].(float64)
}

// explainPhysical returns the rendered physical plan of an XRA query.
func explainPhysical(t *testing.T, db *DB, expr string) string {
	t.Helper()
	ex, err := db.Explain(expr)
	if err != nil {
		t.Fatal(err)
	}
	return ex.Physical
}

// TestExplainIndexScanLifecycle pins when a point read plans as a key
// lookup: never before ANALYZE, after ANALYZE on the key column it chose
// (the attribute either way round of the equality, under the unchanged
// Filter), never on another column, and no longer once the relation is
// replaced wholesale or restored from a dump — until the next ANALYZE.  The
// answers are the same in every state.
func TestExplainIndexScanLifecycle(t *testing.T) {
	db := accountDB(t, 300)
	const point = "select[%1 = 7](account)"
	check := func(label string, wantIndex bool) {
		t.Helper()
		for _, q := range []string{point, "select[7 = %1 and %3 >= 0.0](account)"} {
			got := explainPhysical(t, db, q)
			if strings.Contains(got, "IndexScan") != wantIndex || !strings.HasPrefix(got, "Filter [") {
				t.Errorf("%s: plan of %s:\n%s\nwant IndexScan: %v", label, q, got, wantIndex)
			}
			if wantIndex && !strings.Contains(got, "└─ IndexScan account [%1 = 7]") {
				t.Errorf("%s: IndexScan rendering of %s:\n%s", label, q, got)
			}
			res, err := db.QueryXRA(q)
			if b := balanceOf(t, res, err); b != 70 {
				t.Errorf("%s: %s balance = %v, want 70", label, q, b)
			}
		}
	}
	check("before ANALYZE", false)
	if err := db.Analyze("account"); err != nil {
		t.Fatal(err)
	}
	check("after ANALYZE", true)
	if got := explainPhysical(t, db, "select[%3 = 70.0](account)"); strings.Contains(got, "IndexScan") {
		t.Errorf("equality on a non-key column planned a key lookup:\n%s", got)
	}

	var dump bytes.Buffer
	if err := db.Dump(&dump); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&dump)
	if err != nil {
		t.Fatal(err)
	}
	if got := explainPhysical(t, restored, point); strings.Contains(got, "IndexScan") {
		t.Errorf("restored database planned a key lookup before ANALYZE:\n%s", got)
	}
	res, err := restored.QueryXRA(point)
	if b := balanceOf(t, res, err); b != 70 {
		t.Errorf("restored balance = %v, want 70", b)
	}

	// A wholesale replacement: the relation is dropped and created again.
	if err := db.DropRelation("account"); err != nil {
		t.Fatal(err)
	}
	db.MustCreateRelation("account", Col("id", Int), Col("owner", String), Col("balance", Float))
	if err := db.InsertValues("account", []any{7, "new", 70.0}, []any{8, "new", 80.0}); err != nil {
		t.Fatal(err)
	}
	check("after drop and re-create", false)
	if err := db.Analyze(""); err != nil {
		t.Fatal(err)
	}
	check("after the second ANALYZE", true)
}

// TestExplainIndexScanUnderJoin pins the key lookup below a join: a
// selection written over a two- or three-leaf join pins account's key, the
// planner pushes it into the account leaf, and after ANALYZE that leaf reads
// by key.  Several conjuncts on one leaf make one Filter.
func TestExplainIndexScanUnderJoin(t *testing.T) {
	db := accountDB(t, 300)
	db.MustCreateRelation("x", Col("id", Int), Col("tag", String))
	if err := db.InsertValues("x", []any{7, "a"}, []any{7, "b"}, []any{8, "c"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze(""); err != nil {
		t.Fatal(err)
	}
	for q, want := range map[string]int{
		"select[%1 = 7 and %1 = %4](product(account, x))":               2,
		"select[%1 = 7 and %3 >= 0.0](join[%1 = %4](account, x))":       2,
		"select[%1 = 7](join[%1 = %6](join[%1 = %4](account, x), x))":   4,
		"select[%3 >= 0.0 and 7 = %1 and %1 = %4](product(account, x))": 2,
	} {
		got := explainPhysical(t, db, q)
		if !strings.Contains(got, "IndexScan account [%1 = 7]") {
			t.Errorf("plan of %s:\n%s\nwant IndexScan account [%%1 = 7]", q, got)
		}
		if n := strings.Count(got, "Filter ["); n != 1 {
			t.Errorf("plan of %s has %d Filters, want one:\n%s", q, n, got)
		}
		res, err := db.QueryXRA(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != want {
			t.Errorf("%s returned %d rows, want %d", q, res.Len(), want)
		}
	}
}

// TestKeyLookupInsideTransaction checks the key chain follows a
// transaction's own writes: the update's selection E is found by key, its
// result (R − E) ⊎ π_a(R ∩ E) still carries the chain, and a point read
// later in the same transaction finds the transaction's own row.  A snapshot
// taken before a concurrent commit keeps reading the old row by key.
func TestKeyLookupInsideTransaction(t *testing.T) {
	db := accountDB(t, 300)
	if err := db.Analyze(""); err != nil {
		t.Fatal(err)
	}
	pointExpr := algebra.NewSelect(scalar.NewCompare(value.CmpEq, scalar.NewAttr(0),
		scalar.NewConst(value.NewInt(42))), algebra.NewRel("account"))

	before := db.Begin()
	defer before.Abort()

	tx := db.Begin()
	if err := tx.ExecSQL("update account set balance = balance + 1 where id = 42"); err != nil {
		t.Fatal(err)
	}
	ev, err := tx.inner.EvaluatePlan(pointExpr, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ev.Plan.String(), "IndexScan account [%1 = 42]") {
		t.Errorf("point read after an update in the same transaction:\n%s", ev.Plan)
	}
	res, err := tx.Query("select[%1 = 42](account)")
	if b := balanceOf(t, res, err); b != 421 {
		t.Errorf("own write: balance = %v, want 421", b)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	ev, err = before.inner.EvaluatePlan(pointExpr, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ev.Plan.String(), "IndexScan account [%1 = 42]") {
		t.Errorf("point read on an older snapshot:\n%s", ev.Plan)
	}
	if rows := ev.Result.Distinct(); len(rows) != 1 || rows[0].At(2).Float() != 420 {
		t.Errorf("older snapshot reads %v, want the row with balance 420", rows)
	}
	res, err = db.QuerySQL("select balance from account where id = 42")
	if b := balanceOf(t, res, err); b != 421 {
		t.Errorf("after commit: balance = %v, want 421", b)
	}
	if res, err := db.QuerySQL("select count(*) from account"); err != nil || res.Rows()[0][0] != int64(300) {
		t.Errorf("row count after the update = %v, %v; want 300", res, err)
	}
}
