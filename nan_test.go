package mra

import (
	"math"
	"testing"
)

// openNaNDB builds r(x float) holding NaN, NaN, 1.5, 1.5.  The two NaNs carry
// different payloads, so every path that identifies values by bit pattern
// rather than by value equality is exercised as well.
func openNaNDB(t *testing.T, workers int) *DB {
	t.Helper()
	db := Open()
	db.SetWorkers(workers)
	db.MustCreateRelation("r", Col("x", Float))
	otherNaN := math.Float64frombits(math.Float64bits(math.NaN()) | 0xbeef)
	if !math.IsNaN(otherNaN) {
		t.Fatal("payload NaN is not a NaN")
	}
	if err := db.InsertValues("r",
		[]any{math.NaN()}, []any{otherNaN}, []any{1.5}, []any{1.5},
	); err != nil {
		t.Fatal(err)
	}
	return db
}

// nanRows counts a result's NaN rows and the occurrences of 1.5 in a
// single-column result.
func nanRows(t *testing.T, res *Result) (nans, ones int) {
	t.Helper()
	for _, row := range res.Rows() {
		switch f := row[0].(float64); {
		case math.IsNaN(f):
			nans++
		case f == 1.5:
			ones++
		default:
			t.Fatalf("unexpected row %v", row)
		}
	}
	return nans, ones
}

// TestNaNBagIdentity pins the NaN contract: all NaNs are one value for bag
// identity, so duplicate elimination, monus, intersection and grouping treat
// them as duplicates of each other, and an equality filter never selects a
// NaN by accident.
func TestNaNBagIdentity(t *testing.T) {
	for _, w := range []int{1, 2} {
		db := openNaNDB(t, w)
		query := func(xra string) *Result {
			t.Helper()
			res, err := db.QueryXRA(xra)
			if err != nil {
				t.Fatalf("workers=%d: %s: %v", w, xra, err)
			}
			return res
		}
		cases := []struct {
			xra        string
			nans, ones int
		}{
			{"r", 2, 2},
			{"unique(r)", 1, 1},
			{"diff(r, r)", 0, 0},
			{"intersect(r, r)", 2, 2},
			{"union(r, r)", 4, 4},
			{"select[%1 = 1.5](r)", 0, 2},
			{"select[%1 <> 1.5](r)", 2, 0},
			{"select[%1 > 1.5](r)", 2, 0},
			{"select[%1 < 1.5](r)", 0, 0},
		}
		for _, c := range cases {
			res := query(c.xra)
			if nans, ones := nanRows(t, res); nans != c.nans || ones != c.ones {
				t.Errorf("workers=%d: %s = %v: %d NaN and %d 1.5 rows, want %d and %d",
					w, c.xra, res.Rows(), nans, ones, c.nans, c.ones)
			}
		}
		if got := query("unique(r)").DistinctLen(); got != 2 {
			t.Errorf("workers=%d: unique(r) has %d distinct rows, want 2", w, got)
		}
		if m := query("r").Multiplicity(math.NaN()); m != 2 {
			t.Errorf("workers=%d: multiplicity of NaN in r = %d, want 2", w, m)
		}

		groups, err := db.QuerySQL("select x, count(*) from r group by x")
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		rows := groups.Rows()
		if len(rows) != 2 {
			t.Fatalf("workers=%d: group by x = %v, want one NaN group and one 1.5 group", w, rows)
		}
		for _, row := range rows {
			if n := row[1].(int64); n != 2 {
				t.Errorf("workers=%d: group %v counts %d rows, want 2", w, row[0], n)
			}
		}
	}
}
