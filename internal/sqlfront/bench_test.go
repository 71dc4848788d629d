package sqlfront

import (
	"testing"

	"mra/internal/algebra"
	"mra/internal/eval"
	"mra/internal/multiset"
	"mra/internal/schema"
	"mra/internal/value"
)

// benchCatalog holds empty relations with the schemas of the repository
// benchmark's bank and olap data: compiling only resolves names.
func benchCatalog() algebra.Catalog {
	rel := func(name string, cols ...string) *multiset.Relation {
		attrs := make([]schema.Attribute, len(cols))
		for i, c := range cols {
			attrs[i] = schema.Attribute{Name: c, Type: value.KindInt}
		}
		return multiset.New(schema.NewRelation(name, attrs...))
	}
	account := multiset.New(schema.NewRelation("account",
		schema.Attribute{Name: "id", Type: value.KindInt},
		schema.Attribute{Name: "owner", Type: value.KindString},
		schema.Attribute{Name: "balance", Type: value.KindFloat}))
	return eval.CatalogOf(eval.MapSource{
		"account": account,
		"fact":    rel("fact", "k1", "k2", "k3", "payload", "z"),
		"d1":      rel("d1", "key", "attr"),
		"d2":      rel("d2", "key", "attr"),
		"d3":      rel("d3", "key", "attr"),
	})
}

// BenchmarkCompileTransfer compiles the two statements of a bank_mix
// transfer, each sent as its own script line as the benchmark's clients do.
func BenchmarkCompileTransfer(b *testing.B) {
	cat := benchCatalog()
	lines := []string{
		"update account set balance = balance - 1.23 where id = 4017;",
		"update account set balance = balance + 1.23 where id = 982;",
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, l := range lines {
			if _, _, err := CompileScript(l, cat); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCompileStar compiles the olap workloads' q_star query, whose
// qualified names (d1.attr, fact.k1) exercise the dot token.
func BenchmarkCompileStar(b *testing.B) {
	cat := benchCatalog()
	const q = "select d1.attr, count(*), sum(fact.payload) from fact, d1, d2, d3 " +
		"where fact.k1 = d1.key and fact.k2 = d2.key and fact.k3 = d3.key and d2.attr < 20 " +
		"group by d1.attr"
	b.ReportAllocs()
	for b.Loop() {
		if _, err := CompileQuery(q, cat); err != nil {
			b.Fatal(err)
		}
	}
}
