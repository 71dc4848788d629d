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

// TestLeastIntegerInsideExpressions pins the least int64 inside a scalar
// expression in both languages: a `-` directly before a number literal
// converts the signed text, as a literal relation or VALUES list does, so
// -9223372036854775808 finds its row; 2^63 itself stays out of range, so
// subtracting it, or negating it in parentheses, is still an error.
func TestLeastIntegerInsideExpressions(t *testing.T) {
	const least = "-9223372036854775808"
	db := Open()
	db.MustCreateRelation("t", Col("a", Int))
	if err := db.InsertValues("t", []any{int64(math.MinInt64)}, []any{int64(1)}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ lang, src string }{
		{"xra", "select[%1 = " + least + "](t)"},
		{"xra", "select[%1 = " + least + " * 1](t)"},
		{"sql", "select a from t where a = " + least},
		{"sql", "select a from t where " + least + " = a"},
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
		if got, want := res.Rows(), [][]any{{int64(math.MinInt64)}}; !reflect.DeepEqual(got, want) {
			t.Errorf("%s %q = %v, want %v", c.lang, c.src, got, want)
		}
	}
	for _, c := range []struct{ lang, src string }{
		{"xra", "select[%1 = %1 - 9223372036854775808](t)"},
		{"xra", "select[%1 = 0 - 9223372036854775808](t)"},
		{"xra", "select[%1 = -(9223372036854775808)](t)"},
		{"sql", "select a from t where a = a - 9223372036854775808"},
		{"sql", "select a from t where a = 0 - 9223372036854775808"},
		{"sql", "select a from t where a = -(9223372036854775808)"},
	} {
		query := db.QueryXRA
		if c.lang == "sql" {
			query = db.QuerySQL
		}
		if res, err := query(c.src); err == nil || !strings.Contains(err.Error(), "9223372036854775808 is out of the 64-bit range") {
			t.Errorf("%s %q = %v, %v; want the out-of-range error", c.lang, c.src, res, err)
		}
	}
}

// TestUTF8Identifiers checks that both languages read a relation name the Go
// API accepts when it holds non-ASCII letters: the lexer decodes UTF-8, so
// "bière" is one identifier.  Positions in errors still count bytes from 1
// (the rule of lex.Pos), so the character after a two-byte letter sits one
// column further right than it looks.
func TestUTF8Identifiers(t *testing.T) {
	db := Open()
	db.MustCreateRelation("bière", Col("a", Int))
	if err := db.InsertValues("bière", []any{int64(1)}, []any{int64(2)}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ lang, src string }{
		{"xra", "select[%1 = 1](bière)"},
		{"sql", "select a from bière where a = 1"},
		{"sql", "select bière.a from bière where bière.a = 1"},
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
		if got, want := res.Rows(), [][]any{{int64(1)}}; !reflect.DeepEqual(got, want) {
			t.Errorf("%s %q = %v, want %v", c.lang, c.src, got, want)
		}
	}
	// "é" is two bytes, so the '#' after "bière" is byte 23 of the query.
	if _, err := db.QueryXRA("select[%1 = 1](bière #)"); err == nil || !strings.Contains(err.Error(), "1:23: unexpected character '#'") {
		t.Errorf("error = %v, want it at 1:23 naming '#'", err)
	}
	if _, err := db.QuerySQL("select a from bière where a = €"); err == nil || !strings.Contains(err.Error(), "1:32: unexpected character '€'") {
		t.Errorf("error = %v, want it at 1:32 naming '€'", err)
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
