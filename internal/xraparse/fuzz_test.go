package xraparse

import "testing"

// FuzzParse drives every parser entry point with arbitrary input: malformed
// XRA must come back as a parse error, never as a panic — the shell and the
// script runner feed user input straight into these functions.  The seed
// corpus is the golden queries of the parser tests plus a few deliberately
// broken fragments near known tricky spots (unterminated strings, nested
// brackets, transaction brackets, out-of-range literals, comments holding
// ";" or "'", the dot and percent tokens SQL spells differently, and a
// UTF-8 identifier).
func FuzzParse(f *testing.F) {
	seeds := []string{
		"beer",
		"union(beer, beer)",
		"diff(beer, beer)",
		"difference(beer, select[%3 > 6](beer))",
		"intersect(beer, beer)",
		"product(beer, brewery)",
		"select[%3 >= 5.2 and %2 = 'guineken'](beer)",
		"select[%3 < 5.1 or %3 > 6.0](beer)",
		"select[not (%2 = 'guineken')](beer)",
		"project[%1, %3](beer)",
		"xproject[%1, %3 * 2](beer)",
		"unique(project[%1](beer))",
		"groupby[(), CNT, %1](beer)",
		"groupby[(%2), count, %1, MAX, %3](beer)",
		"join[%2 = %4](beer, brewery)",
		"groupby[(%6), AVG, %3](join[%2 = %4](beer, brewery))",
		"[(1, 'x'), (1, 'x'), (2, 'y')]",
		"select[%1 % 2 = 0]([(1), (2), (3), (4)])",
		"xproject[%1 || '!'](project[%1](beer))",
		"tclose([(1, 2), (2, 3)])",
		"x := select[true](beer); x;",
		"begin beer; end;",
		"begin r <- beer; end; begin beer; end;",
		// Malformed fragments.
		"select[%3 >",
		"project[](beer",
		"'unterminated",
		"[(1, (2)]",
		"begin begin end",
		";;;",
		"%0",
		"select[%](beer)",
		// Literal range, comments holding ";" and "'", and the tokens the
		// two languages spell differently.
		"[(99999999999999999999)]",
		"[(-9223372036854775808)]",
		"select[%1 = 99999999999999999999](beer); -- a; comment",
		"beer -- don't\n; beer",
		"select[%1 % 2 = 0](sales.q1)",
		"select[%3%2 = 1](sales . q1)",
		// A UTF-8 identifier and the least int64 inside a predicate.
		"select[%1 = -9223372036854775808](bière)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Errors are expected on malformed input; panics are the bug class
		// under test, and the harness converts them into failures.
		_, _ = ParseExpression(src)
		_, _ = ParseStatement(src)
		_, _ = ParseProgram(src)
		_, _ = ParseScript(src)
	})
}
