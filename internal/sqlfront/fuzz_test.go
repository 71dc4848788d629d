package sqlfront

import (
	"testing"

	"mra/internal/algebra"
	"mra/internal/eval"
)

// FuzzParse drives the SQL front-end — lexer, parser, and translator — with
// arbitrary input over a fixed catalog: malformed SQL must come back as a
// compile error, never as a panic, because the -sql shell feeds user input
// straight into these functions.  The seed corpus is the golden statements of
// the SQL tests plus broken fragments near known tricky spots (quoting,
// nesting, dangling clauses, out-of-range literals, comments holding ";" or
// "'", the dot and percent tokens XRA spells differently, and a UTF-8
// identifier).
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT name FROM beer",
		"SELECT * FROM beer",
		"SELECT DISTINCT brewery FROM beer",
		"SELECT name, alcperc * 2 FROM beer WHERE alcperc >= 5.0",
		"SELECT b.name, br.city FROM beer b, brewery br WHERE b.brewery = br.name",
		"SELECT brewery, COUNT(*), MAX(alcperc) FROM beer GROUP BY brewery",
		"SELECT country, AVG(alcperc) FROM beer, brewery WHERE beer.brewery = brewery.name GROUP BY country",
		"SELECT name FROM beer ORDER BY alcperc DESC, name",
		"SELECT name FROM beer UNION SELECT name FROM brewery",
		"INSERT INTO beer VALUES ('radler', 'brolsch', 2.0)",
		"DELETE FROM beer WHERE brewery = 'guinness'",
		"UPDATE beer SET alcperc = alcperc * 1.1 WHERE brewery = 'guineken'",
		"BEGIN; SELECT name FROM beer; COMMIT;",
		// Malformed fragments.
		"SELECT",
		"SELECT FROM beer",
		"SELECT name FROM",
		"SELECT name FROM beer WHERE",
		"SELECT 'unterminated FROM beer",
		"SELECT ((name) FROM beer",
		"INSERT INTO beer VALUES (",
		"GROUP BY",
		";;;",
		// Literal range, comments holding ";" and "'", and the tokens the
		// two languages spell differently.
		"INSERT INTO beer VALUES (99999999999999999999)",
		"INSERT INTO beer VALUES ('x', 'y', -9223372036854775808)",
		"SELECT name FROM beer WHERE alcperc = 99999999999999999999 LIMIT 99999999999999999999",
		"SELECT name FROM beer; -- a; comment",
		"DELETE FROM beer -- don't\n; SELECT name FROM beer",
		"SELECT b . name FROM beer b WHERE alcperc%2 = 1",
		// A UTF-8 identifier and the least int64 inside a predicate.
		"SELECT a FROM bière WHERE a = -9223372036854775808",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	cat := testCatalog()
	f.Fuzz(func(t *testing.T, sql string) {
		// Errors are expected on malformed input; panics are the bug class
		// under test, and the harness converts them into failures.
		_, _ = CompileQuery(sql, cat)
		_, _ = CompileStatement(sql, cat)
		_, _, _ = CompileScript(sql, cat)
	})
}

// testCatalog is the beer/brewery schema of the running example; fuzzing
// only needs its name resolution.
func testCatalog() algebra.Catalog {
	return eval.CatalogOf(beerSource())
}
