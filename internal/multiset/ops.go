package multiset

import (
	"fmt"

	"mra/internal/schema"
	"mra/internal/tuple"
)

// This file implements the multi-set operations the engine applies to whole
// materialised relations: union ⊎, difference −, intersection ∩, duplicate
// elimination δ and the row map of statements.  The physical plans call them
// for their blocking set operators, and the statement executor for its
// updates.

// ErrIncompatible is returned when an operation is applied to relations whose
// schemas are not union-compatible.
type ErrIncompatible struct {
	// Op names the operation that was applied (union, difference, ...).
	Op string
	// Left and Right are the incompatible operand schemas.
	Left, Right schema.Relation
}

// Error implements the error interface.
func (e *ErrIncompatible) Error() string {
	return fmt.Sprintf("multiset: %s applied to incompatible schemas %s and %s", e.Op, e.Left, e.Right)
}

// The three pointwise set operators below walk the arena of their right (or
// smaller) operand and reuse each entry's cached hash for every probe and
// write, so no attribute value is hashed.

// Union returns R1 ⊎ R2 with (R1 ⊎ R2)(x) = R1(x) + R2(x) (Definition 3.1).
func Union(a, b *Relation) (*Relation, error) {
	if !a.Schema().Compatible(b.Schema()) {
		return nil, &ErrIncompatible{Op: "union", Left: a.Schema(), Right: b.Schema()}
	}
	out := a.Clone()
	out.MergeFrom(b)
	return out, nil
}

// Difference returns R1 − R2 with (R1 − R2)(x) = max(0, R1(x) − R2(x))
// (Definition 3.1).
func Difference(a, b *Relation) (*Relation, error) {
	if !a.Schema().Compatible(b.Schema()) {
		return nil, &ErrIncompatible{Op: "difference", Left: a.Schema(), Right: b.Schema()}
	}
	out := a.Clone()
	if b.IsEmpty() {
		return out, nil
	}
	out.materialize()
	for e := range b.tab.entries(nil) {
		out.tab.remove(e.hash, e.tup, e.count)
	}
	out.tab.compact()
	return out, nil
}

// Intersection returns R1 ∩ R2 with (R1 ∩ R2)(x) = min(R1(x), R2(x))
// (Definition 3.2).
func Intersection(a, b *Relation) (*Relation, error) {
	if !a.Schema().Compatible(b.Schema()) {
		return nil, &ErrIncompatible{Op: "intersection", Left: a.Schema(), Right: b.Schema()}
	}
	small, large := a, b
	if small.DistinctCount() > large.DistinctCount() {
		small, large = large, small
	}
	out := NewWithCapacity(a.Schema(), small.DistinctCount())
	for e := range small.tab.entries(nil) {
		// small's entries are distinct tuples, so each is new to out.
		if m := min(e.count, large.tab.count(e.hash, e.tup)); m > 0 {
			out.tab.insert(e.hash, e.tup, m)
		}
	}
	return out, nil
}

// Map returns the relation obtained by applying fn to every distinct tuple,
// keeping multiplicities.  It is the building block of the extended
// (arithmetic) projection; fn must produce tuples of the given schema.
func Map(r *Relation, out schema.Relation, fn func(tuple.Tuple) (tuple.Tuple, error)) (*Relation, error) {
	res := NewWithCapacity(out, r.DistinctCount())
	var iterErr error
	r.Each(func(t tuple.Tuple, count uint64) bool {
		m, err := fn(t)
		if err != nil {
			iterErr = err
			return false
		}
		res.Add(m, count)
		return true
	})
	if iterErr != nil {
		return nil, iterErr
	}
	return res, nil
}
