// Package eval holds the relation source that tests and the benchmark hand
// the planner without a storage database underneath: MapSource, a map of
// relations, and CatalogOf, the algebra.Catalog view of any source.  It
// evaluates nothing: the tests' evaluator is internal/oracle, and everything
// else evaluates through txn.Tx.EvaluatePlan.
package eval

import (
	"strings"

	"mra/internal/algebra"
	"mra/internal/multiset"
	"mra/internal/plan"
	"mra/internal/schema"
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
