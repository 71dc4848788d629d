package mra

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestOutOfRangeIntegerLiteralsAreRejected pins the one literal rule both
// front ends share: an integer literal outside int64 is an error wherever it
// appears, never a clamped value, and a negated literal converts its signed
// text, so the least int64 is stored exactly.
func TestOutOfRangeIntegerLiteralsAreRejected(t *testing.T) {
	const big = "99999999999999999999"
	db := Open()
	db.MustCreateRelation("t", Col("a", Int))
	if err := db.InsertValues("t", []any{int64(math.MaxInt64)}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ lang, src string }{
		{"sql", "insert into t values (" + big + ")"},
		{"sql", "select a from t where a = " + big},
		{"sql", "select a from t limit " + big},
		{"sql", "select a from t offset " + big},
		{"xra", "insert(t, [(" + big + ")])"},
		{"xra", "? select[%1 = " + big + "](t)"},
	} {
		exec := db.ExecXRA
		if c.lang == "sql" {
			exec = db.ExecSQL
		}
		if res, err := exec(c.src); err == nil || !strings.Contains(err.Error(), big) {
			t.Errorf("%s %q = %v, %v; want an error naming the literal", c.lang, c.src, res, err)
		}
	}
	if n := db.Cardinality("t"); n != 1 {
		t.Errorf("|t| = %d after rejected inserts, want 1", n)
	}

	db.MustCreateRelation("m", Col("a", Int))
	if _, err := db.ExecSQL("insert into m values (-9223372036854775808)"); err != nil {
		t.Fatalf("sql: %v", err)
	}
	if _, err := db.ExecXRA("insert(m, [(-9223372036854775808)])"); err != nil {
		t.Fatalf("xra: %v", err)
	}
	res, err := db.QuerySQL("select a from m")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]any{{int64(math.MinInt64)}, {int64(math.MinInt64)}}
	if got := res.Rows(); !reflect.DeepEqual(got, want) {
		t.Errorf("stored %v, want %v", got, want)
	}
}

// TestFrontEndsReadTheTokensTheySpellDifferently pins how each language
// reads the tokens the two spell differently — a dot, a star and a percent
// sign — from the one token stream.
func TestFrontEndsReadTheTokensTheySpellDifferently(t *testing.T) {
	db := Open()
	db.MustCreateRelation("sales.q1", Col("a", Int), Col("b", Int))
	db.MustCreateRelation("r", Col("a", Int), Col("b", Int))
	for _, rel := range []string{"sales.q1", "r"} {
		if err := db.InsertValues(rel, []any{7, 3}, []any{8, 2}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		lang, src string
		want      [][]any
	}{
		{"xra", "project[%1](select[%1 % 2 = 1](sales.q1))", [][]any{{int64(7)}}},
		{"xra", "xproject[%1 * %2](sales.q1)", [][]any{{int64(16)}, {int64(21)}}},
		{"sql", "select r . a from r where a%2 = 1", [][]any{{int64(7)}}},
		{"sql", "select r.a * b from r order by 1", [][]any{{int64(16)}, {int64(21)}}},
		{"sql", "select count(*) from r", [][]any{{int64(2)}}},
		{"sql", "select * from r where a % 2 = 0", [][]any{{int64(8), int64(2)}}},
	} {
		query := db.QueryXRA
		if c.lang == "sql" {
			query = db.QuerySQL
		}
		res, err := query(c.src)
		if err != nil {
			t.Errorf("%s %q: %v", c.lang, c.src, err)
			continue
		}
		if got := res.Rows(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s %q = %v, want %v", c.lang, c.src, got, c.want)
		}
	}
}
