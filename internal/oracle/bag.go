package oracle

import (
	"fmt"
	"slices"
	"strings"

	"mra/internal/multiset"
	"mra/internal/schema"
	"mra/internal/tuple"
	"mra/internal/value"
)

// Bag is a multi-set relation as the oracle holds it: distinct rows, by
// canonical key, each with a positive multiplicity.  Two bags are equal when
// every key has the same multiplicity in both; attribute names play no part.
type Bag struct {
	schema schema.Relation
	rows   []row
}

// collect builds the bag of rows under schema s.
func collect(s schema.Relation, rows []row) Bag { return Bag{schema: s, rows: distinct(rows)} }

// Of reads an engine relation into a bag, through Relation.Each only.
func Of(r *multiset.Relation) Bag {
	var rows []row
	r.Each(func(t tuple.Tuple, count uint64) bool {
		rows = append(rows, row{vals: t.Values(), count: count})
		return true
	})
	return collect(r.Schema(), rows)
}

// Schema returns the bag's schema.
func (b Bag) Schema() schema.Relation { return b.schema }

// Cardinality is the number of elements, duplicates counted.
func (b Bag) Cardinality() uint64 {
	var n uint64
	for _, x := range b.rows {
		n += x.count
	}
	return n
}

// DistinctCount is the number of distinct rows.
func (b Bag) DistinctCount() int { return len(b.rows) }

// IsEmpty reports whether the bag has no element.
func (b Bag) IsEmpty() bool { return len(b.rows) == 0 }

// Multiplicity returns the multiplicity of t's row, zero when absent.
func (b Bag) Multiplicity(t tuple.Tuple) uint64 {
	vals := make([]value.Value, t.Arity())
	for i := range vals {
		vals[i] = t.At(i)
	}
	return counts(b.rows)[rowKey(vals)]
}

// Contains reports whether t's row is an element of the bag.
func (b Bag) Contains(t tuple.Tuple) bool { return b.Multiplicity(t) > 0 }

// Each calls fn with every distinct row and its multiplicity until fn returns
// false.  fn must not modify the row.
func (b Bag) Each(fn func(vals []value.Value, count uint64) bool) {
	for _, x := range b.rows {
		if !fn(x.vals, x.count) {
			return
		}
	}
}

// Equal reports whether o holds the same rows with the same multiplicities.
func (b Bag) Equal(o Bag) bool { return b.Diff(o) == "" }

// Diff describes how o differs from b, one sorted line per row whose
// multiplicity differs ("want" is b's, "got" is o's); it is empty when the
// bags are equal.
func (b Bag) Diff(o Bag) string {
	want, got := counts(b.rows), counts(o.rows)
	var lines []string
	for _, x := range append(slices.Clone(b.rows), o.rows...) {
		k := rowKey(x.vals)
		if w, g := want[k], got[k]; w != g {
			lines = append(lines, fmt.Sprintf("  %s: want ×%d, got ×%d", describe(x.vals), w, g))
			want[k], got[k] = 0, 0
		}
	}
	slices.Sort(lines)
	return strings.Join(lines, "\n")
}

// Check compares an engine result with the bag by canonical key.  It returns
// nil when r holds exactly the bag, and otherwise an error listing every row
// whose multiplicity differs (want is the oracle's, got the engine's).
func (b Bag) Check(r *multiset.Relation) error {
	if d := b.Diff(Of(r)); d != "" {
		return fmt.Errorf("engine result differs from the oracle:\n%s", d)
	}
	return nil
}

// String renders the bag as its rows with multiplicities, sorted by their
// text so equal bags print alike.
func (b Bag) String() string {
	parts := make([]string, len(b.rows))
	for i, x := range b.rows {
		parts[i] = describe(x.vals)
		if x.count > 1 {
			parts[i] += fmt.Sprintf("×%d", x.count)
		}
	}
	slices.Sort(parts)
	return "{" + strings.Join(parts, ", ") + "}"
}

// Relation returns the bag as an engine relation, for test doubles that hand
// an oracle result to engine code, such as a statement's evaluation context.
func (b Bag) Relation() *multiset.Relation {
	out := multiset.New(b.schema)
	for _, x := range b.rows {
		out.Add(tuple.New(x.vals...), x.count)
	}
	return out
}

// describe renders a row as a parenthesised value list.
func describe(vals []value.Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
