// Package eval implements the executable semantics of the multi-set extended
// relational algebra as Reference: a literal transcription of the paper's
// definitions, used as the semantic oracle by property-based tests.  Its
// Source is the planner's: plan.Planner reads every base-relation fact off the
// instances the source returns, and CatalogOf gives the same source the
// algebra.Catalog view validation needs, which is how a transaction's
// evaluate stage (txn.Tx.EvaluatePlan) compiles expressions into streaming
// physical operators.
//
// Agreement of the physical plans with Reference on random databases —
// including randomly generated expression trees — is itself one of the
// library's property tests.
package eval

import (
	"fmt"
	"strings"

	"mra/internal/algebra"
	"mra/internal/multiset"
	"mra/internal/plan"
	"mra/internal/schema"
	"mra/internal/stats"
)

// Source resolves database relation names to relation instances.  It is
// plan.Source: the storage engine and transaction contexts implement it, tests
// use MapSource, and the planner plans from the same instances the plan scans.
type Source = plan.Source

// MapSource is a Source backed by a map with case-insensitive lookup.
type MapSource map[string]*multiset.Relation

// Relation implements Source.
func (m MapSource) Relation(name string) (*multiset.Relation, bool) {
	if r, ok := m[name]; ok {
		return r, true
	}
	for k, r := range m {
		if strings.EqualFold(k, name) {
			return r, true
		}
	}
	return nil, false
}

// sourceCatalog adapts any Source whose relations are known by name into a
// Catalog.  Evaluators use it to infer operator output schemas on demand.
type sourceCatalog struct {
	src Source
}

// RelationSchema implements algebra.Catalog.
func (c sourceCatalog) RelationSchema(name string) (schema.Relation, bool) {
	r, ok := c.src.Relation(name)
	if !ok {
		return schema.Relation{}, false
	}
	return r.Schema(), true
}

// CatalogOf wraps a Source as an algebra.Catalog.
func CatalogOf(src Source) algebra.Catalog { return sourceCatalog{src: src} }

// Cardinalities returns src unchanged: a Source is already everything
// plan.Planner reads base-relation facts from.  Its one caller, the
// benchmark's staged replay, can pass the source directly.
func Cardinalities(src Source) Source { return src }

// StatsSource decorates a Source with precomputed per-relation statistics, so
// callers without a storage database underneath (benchmarks over MapSource,
// tests) can feed the planner ANALYZE-grade summaries.  Lookup is
// case-insensitive, matching MapSource.
type StatsSource struct {
	Source
	// Tables maps relation names to their statistics summaries.
	Tables map[string]*stats.Table
}

// TableStats reports the named relation's summary; the planner reads it as
// its source's optional statistics.
func (s StatsSource) TableStats(name string) (*stats.Table, bool) {
	if t, ok := s.Tables[name]; ok {
		return t, true
	}
	for k, t := range s.Tables {
		if strings.EqualFold(k, name) {
			return t, true
		}
	}
	return nil, false
}

// AnalyzeSource builds statistics for every relation of a map source and
// keys a copy of each relation on the column they choose, wrapping the
// copies as a StatsSource — the in-memory equivalent of running ANALYZE on
// each relation.  m is left as it was.
func AnalyzeSource(m MapSource) StatsSource {
	tables := make(map[string]*stats.Table, len(m))
	keyed := make(MapSource, len(m))
	for name, r := range m {
		tables[name] = stats.Analyze(r, 0)
		keyed[name] = r.WithKey(tables[name].KeyColumn())
	}
	return StatsSource{Source: keyed, Tables: tables}
}

// lookup fetches a relation from a source, converting a miss into an error.
func lookup(src Source, name string) (*multiset.Relation, error) {
	r, ok := src.Relation(name)
	if !ok {
		return nil, fmt.Errorf("eval: unknown relation %q", name)
	}
	return r, nil
}
