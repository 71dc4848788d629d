package multiset

import (
	"fmt"

	"mra/internal/schema"
	"mra/internal/tuple"
)

// This file implements the definition-level multi-set operations used as the
// semantic core by both evaluators: union ⊎, difference −, intersection ∩,
// Cartesian product ×, and duplicate elimination δ.  They operate directly on
// materialised relations; the algebra and evaluation packages wrap them in
// operator trees and physical plans.

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

// Product returns R1 × R2 with (R1 × R2)(x ⊕ y) = R1(x) · R2(y)
// (Definition 3.1).  The result schema is 𝓔 ⊕ 𝓔′.
func Product(a, b *Relation) *Relation {
	capacity := a.DistinctCount() * b.DistinctCount()
	if capacity > 1<<20 {
		capacity = 1 << 20
	}
	out := NewWithCapacity(a.Schema().Concat(b.Schema()), capacity)
	a.Each(func(ta tuple.Tuple, ca uint64) bool {
		b.Each(func(tb tuple.Tuple, cb uint64) bool {
			out.Add(ta.Concat(tb), ca*cb)
			return true
		})
		return true
	})
	return out
}

// Unique returns δR: the duplicate-free relation with (δR)(x) = 1 whenever
// R(x) > 0 (Definition 3.4).  Because δR has exactly R's distinct tuples, the
// result is a copy-on-write view of R with every multiplicity above one
// forced to one — no tuple is rehashed, and pages that hold no duplicate stay
// shared with R.
func Unique(r *Relation) *Relation {
	out := r.Clone()
	out.materialize()
	tab := out.tab
	for pi := range tab.pages {
		for i := range tab.pages[pi].ents {
			if tab.pages[pi].ents[i].count > 1 {
				tab.own(int32(pi<<tab.pageBits + i)).count = 1
			}
		}
	}
	tab.total = uint64(tab.live)
	return out
}

// Select returns σ_p(R): the sub-multi-set of tuples satisfying the predicate,
// with multiplicities preserved (Definition 3.1).  Predicate errors abort the
// operation.
func Select(r *Relation, pred func(tuple.Tuple) (bool, error)) (*Relation, error) {
	out := NewWithCapacity(r.Schema(), r.DistinctCount())
	var iterErr error
	r.Each(func(t tuple.Tuple, count uint64) bool {
		ok, err := pred(t)
		if err != nil {
			iterErr = err
			return false
		}
		if ok {
			out.Add(t, count)
		}
		return true
	})
	if iterErr != nil {
		return nil, iterErr
	}
	return out, nil
}

// Project returns π_α(R) for a positional attribute list α: multiplicities of
// tuples that collapse onto the same projected tuple accumulate
// (Definition 3.1) — this is the essential difference from the set-based
// projection, which would deduplicate.
func Project(r *Relation, indices []int) (*Relation, error) {
	outSchema, err := r.Schema().Project(indices)
	if err != nil {
		return nil, err
	}
	out := NewWithCapacity(outSchema, r.DistinctCount())
	var iterErr error
	r.Each(func(t tuple.Tuple, count uint64) bool {
		p, err := t.Project(indices)
		if err != nil {
			iterErr = err
			return false
		}
		out.Add(p, count)
		return true
	})
	if iterErr != nil {
		return nil, iterErr
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
