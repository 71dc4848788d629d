// Package eval implements the executable semantics of the multi-set extended
// relational algebra as Reference: a literal transcription of the paper's
// definitions, used as the semantic oracle by property-based tests.  It also
// adapts evaluation sources for the physical layer: Cardinalities and
// CatalogOf let plan.Planner plan against any Source, which is how a
// transaction's evaluate stage (txn.Tx.EvaluatePlan) compiles expressions into
// streaming physical operators.
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

// Source resolves database relation names to relation instances.  The storage
// engine and transaction contexts implement it; tests use MapSource.
type Source interface {
	// Relation returns the named relation instance.
	Relation(name string) (*multiset.Relation, bool)
}

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

// Catalog returns an algebra.Catalog view of the source, so expressions can be
// validated against the same relations they will be evaluated on.
func (m MapSource) Catalog() algebra.Catalog {
	cat := make(algebra.MapCatalog, len(m))
	for k, r := range m {
		cat[k] = r.Schema()
	}
	return cat
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

// sourceCards adapts a Source into the planner's cardinality provider, so the
// cost model ranks plans on the actual table sizes of the database being
// queried.  Relation lookups are O(1) copy-on-write clones.
type sourceCards struct {
	src Source
}

// RelationCardinality implements plan.CardinalitySource.
func (c sourceCards) RelationCardinality(name string) (uint64, bool) {
	r, ok := c.src.Relation(name)
	if !ok {
		return 0, false
	}
	return r.Cardinality(), true
}

// RelationDistinctCount implements plan.DistinctCardinalitySource, letting
// the planner size hash tables by distinct tuples rather than occurrences.
func (c sourceCards) RelationDistinctCount(name string) (int, bool) {
	r, ok := c.src.Relation(name)
	if !ok {
		return 0, false
	}
	return r.DistinctCount(), true
}

// TableStats implements plan.TableStatsSource by forwarding to the wrapped
// Source when it carries per-column statistics (transaction snapshots, the
// storage engine after ANALYZE, StatsSource wrappers); sources without
// statistics report none and the planner falls back to flat selectivities.
func (c sourceCards) TableStats(name string) (*stats.Table, bool) {
	if s, ok := c.src.(interface {
		TableStats(name string) (*stats.Table, bool)
	}); ok {
		return s.TableStats(name)
	}
	return nil, false
}

// KeyColumn implements plan.KeyColumnSource: it reports the key column of the
// very instance the source will hand the executor — inside a transaction the
// working set, which carries the key chain of the snapshot it descends from —
// so the planner chooses an IndexScan only over a relation that has one.
func (c sourceCards) KeyColumn(name string) (int, bool) {
	r, ok := c.src.Relation(name)
	if !ok {
		return 0, false
	}
	return r.KeyColumn()
}

// Cardinalities wraps a Source as a plan.CardinalitySource.
func Cardinalities(src Source) plan.CardinalitySource { return sourceCards{src: src} }

// StatsSource decorates a Source with precomputed per-relation statistics, so
// callers without a storage database underneath (benchmarks over MapSource,
// tests) can feed the planner ANALYZE-grade summaries.  Lookup is
// case-insensitive, matching MapSource.
type StatsSource struct {
	Source
	// Tables maps relation names to their statistics summaries.
	Tables map[string]*stats.Table
}

// TableStats implements plan.TableStatsSource.
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
