package mra

import (
	"testing"

	"mra/internal/oracle"
	"mra/internal/xraparse"
)

// TestMixedNumericBagsAreOrderIndependent pins exact numeric equality on the
// cases where int/float equality on float64 images broke it: above 2^53
// several ints share one float image, so 2^53 = 2^53.0 = 2^53+1 held while
// 2^53 ≠ 2^53+1, and which ints a union or a group merged depended on which
// operand arrived first — and so on the worker count.  i holds 2^53 and
// 2^53+1 (alternating over 20 000 rows), f holds 2^53.0 (20 000 rows); only
// 2^53 equals 2^53.0.  Every query is checked against the oracle at workers
// 1, 2, 4 and 8, with both operand orders.
func TestMixedNumericBagsAreOrderIndependent(t *testing.T) {
	const two53 = 1 << 53
	const rows = 20000
	db := Open()
	db.MustCreateRelation("i", Col("x", Int), Col("n", Int))
	db.MustCreateRelation("f", Col("x", Float), Col("n", Int))
	is, fs := make([][]any, rows), make([][]any, rows)
	for n := range rows {
		is[n] = []any{int64(two53 + n%2), int64(n)}
		fs[n] = []any{float64(two53), int64(n)}
	}
	if err := db.InsertValues("i", is...); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertValues("f", fs...); err != nil {
		t.Fatal(err)
	}
	// Each query is written with both operand orders; want is its row count.
	cases := []struct {
		queries [2]string
		want    int
	}{
		{[2]string{"unique(project[%1](union(i, f)))", "unique(project[%1](union(f, i)))"}, 2},
		{[2]string{"groupby[(%1),CNT,%2](union(i, f))", "groupby[(%1),CNT,%2](union(f, i))"}, 2},
		{[2]string{"diff(project[%1](i), project[%1](f))", "diff(project[%1](i), project[%1](union(f, f)))"}, 10000},
		{[2]string{"intersect(project[%1](i), project[%1](f))", "intersect(project[%1](f), project[%1](i))"}, 10000},
		{[2]string{"project[%1](join[%1 = %2](unique(project[%1](i)), unique(project[%1](f))))",
			"project[%2](join[%1 = %2](unique(project[%1](f)), unique(project[%1](i))))"}, 1},
	}
	for _, c := range cases {
		var first oracle.Bag
		for k, q := range c.queries {
			e, err := xraparse.ParseExpression(q)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := oracle.Eval(e, db.store)
			if err != nil {
				t.Fatalf("oracle on %s: %v", q, err)
			}
			if got := int(ref.Cardinality()); got != c.want {
				t.Errorf("oracle: %s has %d rows, want %d", q, got, c.want)
			}
			if k == 0 {
				first = ref
			} else if d := first.Diff(ref); d != "" {
				t.Errorf("oracle: %s and %s differ:\n%s", c.queries[0], q, d)
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
	}
}
