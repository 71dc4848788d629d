package main

import (
	"strings"
	"testing"

	"mra"
)

// TestReplWaitsOnlyForOpenBlocks feeds the interactive shell line by line and
// checks it submits a buffer exactly when its last token is ';' and no
// begin/end block is left open — counting whole begin/end words and ';'
// tokens, not their text inside other words, string literals or comments.
func TestReplWaitsOnlyForOpenBlocks(t *testing.T) {
	cases := []struct {
		name  string
		sql   bool
		lines []string
		want  string // a result cell the submitted buffer prints; "" = nothing runs
	}{
		{
			name:  "begin inside a string literal",
			lines: []string{"? select[%1 = 'beginner']([('beginner', 1)]);"},
			want:  "beginner",
		},
		{
			name:  "end inside a string literal of a block",
			lines: []string{"begin", "r = [('weekend', 1)];", "? r;", "end;"},
			want:  "weekend",
		},
		{
			name:  "end inside a comment of a block",
			lines: []string{"begin", "r = [('seed', 1)]; -- end of seed data", "? r;", "end;"},
			want:  "seed",
		},
		{
			name:  "an open multi-line block still waits",
			lines: []string{"begin", "r = [('waiting', 1)];", "? r;"},
		},
		{
			name:  "sql has no blocks to wait for",
			sql:   true,
			lines: []string{"select name from beer where name = 'begin';"},
			want:  "(0 rows)",
		},
		{
			name:  "a semicolon inside a comment does not end the statement",
			sql:   true,
			lines: []string{"select name -- the; name", "from beer;"},
			want:  "(0 rows)",
		},
		{
			name:  "a semicolon inside a string literal does not end the statement",
			sql:   true,
			lines: []string{"insert into beer values ('a;", "b');", "select name from beer;"},
			want:  "a;",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := mra.Open()
			db.MustCreateRelation("beer", mra.Col("name", mra.String))
			var out strings.Builder
			repl(db, c.sql, strings.NewReader(strings.Join(c.lines, "\n")+"\n"), &out)
			got := out.String()
			if strings.Contains(got, "error:") {
				t.Fatalf("block submitted at the wrong line:\n%s", got)
			}
			if c.want == "" {
				if !strings.HasSuffix(got, "... ") || strings.Contains(got, "rows)") {
					t.Fatalf("open block ran instead of waiting for end:\n%s", got)
				}
				return
			}
			if !strings.Contains(got, c.want) {
				t.Fatalf("output lacks %q:\n%s", c.want, got)
			}
		})
	}
}
