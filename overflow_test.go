package mra

import (
	"errors"
	"math"
	"strings"
	"testing"

	"mra/internal/plan"
	"mra/internal/value"
)

// TestIntegerSumOverflowFails pins the overflow contract of integer SUM: the
// sum of 2^62, 2^62+1 and 2^62+2 does not fit an int64, so the query fails
// with plan.ErrOverflow instead of wrapping to a negative number, serially
// and two-phase.  The check is on the exact sum, not on a running one, so a
// sum whose partial sums overflow but whose total fits is returned whatever
// order or split the plan adds it up in; AVG of the same values is exact.
func TestIntegerSumOverflowFails(t *testing.T) {
	const big = int64(1) << 62
	for _, w := range []int{1, 2} {
		db := Open()
		db.SetWorkers(w)
		db.MustCreateRelation("s", Col("x", Int))
		if err := db.InsertValues("s", []any{big}, []any{big + 1}, []any{big + 2}); err != nil {
			t.Fatal(err)
		}
		if res, err := db.QuerySQL("select sum(x) from s"); !errors.Is(err, plan.ErrOverflow) {
			t.Errorf("workers=%d: sum(x) = %v, %v; want ErrOverflow", w, res, err)
		}
		res, err := db.QuerySQL("select avg(x) from s")
		if err != nil {
			t.Fatalf("workers=%d: avg(x): %v", w, err)
		}
		if rows := res.Rows(); len(rows) != 1 || rows[0][0] != float64(big+1) {
			t.Errorf("workers=%d: avg(x) = %v, want %v", w, rows, float64(big+1))
		}

		// 1 500 rows, enough for a two-phase plan at two workers: the three
		// large values of x hide among zeros, and y holds 2^62 twice before
		// -2^62, so its running sum overflows although its total is 2^62.
		db.MustCreateRelation("t", Col("id", Int), Col("x", Int), Col("y", Int))
		rows := make([][]any, 0, 1500)
		for i := 0; i < 1500; i++ {
			x, y := int64(0), int64(0)
			switch i {
			case 100, 700:
				x, y = big+int64(i%3), big
			case 1000:
				y = -big
			case 1300:
				x = big + 2
			}
			rows = append(rows, []any{i, x, y})
		}
		if err := db.InsertValues("t", rows...); err != nil {
			t.Fatal(err)
		}
		ex, err := db.Explain("groupby[(),SUM,%2](t)")
		if err != nil {
			t.Fatal(err)
		}
		if twoPhase := strings.Contains(ex.Physical, "GroupMerge"); twoPhase != (w > 1) {
			t.Errorf("workers=%d: plan is not the one this test is about:\n%s", w, ex.Physical)
		}
		if res, err := db.QueryXRA("groupby[(),SUM,%2](t)"); !errors.Is(err, plan.ErrOverflow) {
			t.Errorf("workers=%d: SUM(%%2) = %v, %v; want ErrOverflow", w, res, err)
		}
		res, err = db.QueryXRA("groupby[(),SUM,%3](t)")
		if err != nil {
			t.Fatalf("workers=%d: SUM(%%3): %v", w, err)
		}
		if rows := res.Rows(); len(rows) != 1 || rows[0][0] != big {
			t.Errorf("workers=%d: SUM(%%3) = %v, want %d", w, rows, big)
		}
	}
}

// TestIntegerArithmeticOverflowFails pins integer +, - and * and unary minus
// at both ends of the int64 range in both languages: a result outside it
// fails with value.ErrOverflow, the very error integer SUM fails with,
// instead of wrapping to the other end.
func TestIntegerArithmeticOverflowFails(t *testing.T) {
	db := Open()
	db.MustCreateRelation("t", Col("a", Int))
	if err := db.InsertValues("t", []any{1}); err != nil {
		t.Fatal(err)
	}
	if plan.ErrOverflow != value.ErrOverflow {
		t.Fatal("plan.ErrOverflow is not value.ErrOverflow")
	}
	for _, expr := range []string{
		"9223372036854775807 + 1",
		"-9223372036854775808 - 1",
		"4611686018427387904 * 2",
		"-(-9223372036854775808)",
	} {
		if res, err := db.QuerySQL("select " + expr + " from t"); !errors.Is(err, value.ErrOverflow) {
			t.Errorf("sql %s = %v, %v; want ErrOverflow", expr, res, err)
		}
		if res, err := db.QueryXRA("project[" + expr + "](t)"); !errors.Is(err, value.ErrOverflow) {
			t.Errorf("xra %s = %v, %v; want ErrOverflow", expr, res, err)
		}
	}
	// One step inside the range on each side still computes.
	for expr, want := range map[string]int64{
		"9223372036854775806 + 1":  math.MaxInt64,
		"-9223372036854775807 - 1": math.MinInt64,
		"-4611686018427387904 * 2": math.MinInt64,
	} {
		res, err := db.QueryXRA("project[" + expr + "](t)")
		if err != nil {
			t.Errorf("xra %s: %v", expr, err)
			continue
		}
		if rows := res.Rows(); len(rows) != 1 || rows[0][0] != want {
			t.Errorf("xra %s = %v, want %d", expr, rows, want)
		}
	}
}
