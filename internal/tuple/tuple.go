// Package tuple implements tuples of the multi-set relational data model
// (Definition 2.4 of Grefen & de By, ICDE 1994): construction, equality,
// positional projection α, concatenation ⊕, and the equality-consistent
// hashing used by the multi-set relation representation and the hash-based
// physical operators.
package tuple

import (
	"fmt"
	"strings"

	"mra/internal/value"
)

// Tuple is an element of dom(𝓡): an ordered list of atomic values.  Tuples
// are immutable; all operations return new tuples.
type Tuple struct {
	vals []value.Value
}

// New builds a tuple from values.  The argument slice is copied.
func New(vals ...value.Value) Tuple {
	cp := make([]value.Value, len(vals))
	copy(cp, vals)
	return Tuple{vals: cp}
}

// FromSlice builds a tuple that takes ownership of the given slice.  The
// caller must not modify the slice afterwards.  It exists so the evaluation
// engine can construct tuples without an extra copy on hot paths.
func FromSlice(vals []value.Value) Tuple { return Tuple{vals: vals} }

// Arity returns #r, the number of attributes of the tuple.
func (t Tuple) Arity() int { return len(t.vals) }

// At returns r.i, the value of the i-th attribute (0-based).
func (t Tuple) At(i int) value.Value { return t.vals[i] }

// Values returns a copy of the underlying value list.
func (t Tuple) Values() []value.Value {
	cp := make([]value.Value, len(t.vals))
	copy(cp, t.vals)
	return cp
}

// Project returns α_a(r): the concatenation of the attributes of r selected by
// the 0-based index list a, in the given order (Definition 2.4).  Indices may
// repeat.  It returns an error if an index is out of range.
func (t Tuple) Project(indices []int) (Tuple, error) {
	vals := make([]value.Value, 0, len(indices))
	for _, i := range indices {
		if i < 0 || i >= len(t.vals) {
			return Tuple{}, fmt.Errorf("tuple: projection index %%%d out of range for arity %d", i+1, len(t.vals))
		}
		vals = append(vals, t.vals[i])
	}
	return Tuple{vals: vals}, nil
}

// Concat returns r1 ⊕ r2, the concatenation of the attributes of the two
// tuples in order (Definition 2.4).
func (t Tuple) Concat(o Tuple) Tuple {
	vals := make([]value.Value, 0, len(t.vals)+len(o.vals))
	vals = append(vals, t.vals...)
	vals = append(vals, o.vals...)
	return Tuple{vals: vals}
}

// Equal reports whether two tuples are equal: same arity and pairwise equal
// attribute values (Definition 2.4).
func (t Tuple) Equal(o Tuple) bool {
	if len(t.vals) != len(o.vals) {
		return false
	}
	for i := range t.vals {
		if !t.vals[i].Equal(o.vals[i]) {
			return false
		}
	}
	return true
}

// Identical reports whether two tuples spell the same values: same arity and
// pairwise Identical values.  Tuples sharing one value array are identical
// without a look at their values.
func (t Tuple) Identical(o Tuple) bool {
	if len(t.vals) != len(o.vals) {
		return false
	}
	if len(t.vals) == 0 || &t.vals[0] == &o.vals[0] {
		return true
	}
	for i := range t.vals {
		if !t.vals[i].Identical(o.vals[i]) {
			return false
		}
	}
	return true
}

// Compare orders two tuples lexicographically attribute by attribute; shorter
// tuples sort before longer ones when they share a prefix.  The order is used
// only for canonical (deterministic) result rendering, never by the algebra
// itself, which is order-free.
func (t Tuple) Compare(o Tuple) int {
	n := len(t.vals)
	if len(o.vals) < n {
		n = len(o.vals)
	}
	for i := 0; i < n; i++ {
		if c := t.vals[i].Compare(o.vals[i]); c != 0 {
			return c
		}
	}
	return len(t.vals) - len(o.vals)
}

// HashSeed is the initial state of the incremental tuple hash: folding a
// tuple's values into it with HashMix, in order, yields exactly Hash (or
// HashOn for a projection).  Columnar operator kernels use the incremental
// form to hash join and grouping keys straight off column vectors, without
// materialising a tuple.
const HashSeed uint64 = 14695981039346656037

// hashPrime is the FNV-style multiplier of the tuple hash.
const hashPrime uint64 = 1099511628211

// HashMix folds one attribute value into an incremental tuple hash (see
// HashSeed).
func HashMix(h uint64, v value.Value) uint64 {
	h ^= v.Hash()
	h *= hashPrime
	return h
}

// Hash returns a 64-bit hash of the tuple consistent with Equal.
func (t Tuple) Hash() uint64 {
	h := HashSeed
	for _, v := range t.vals {
		h ^= v.Hash()
		h *= hashPrime
	}
	return h
}

// HashRow returns the hash of physical row r of the column vectors cols:
// bit-identical to Hash of the tuple (cols[0][r], cols[1][r], ...), and so to
// HashOn of a wider tuple when cols are the vectors of its key columns.  It
// is how the columnar sinks and kernels hash a row without building its
// tuple.
func HashRow(cols []value.Vec, r int) uint64 {
	h := HashSeed
	for _, col := range cols {
		h = HashMix(h, col[r])
	}
	return h
}

// HashOn returns a 64-bit hash of the attributes selected by indices,
// consistent with equality of the corresponding projections.  It is the
// hash the physical join and group-by operators partition on.
func (t Tuple) HashOn(indices []int) uint64 {
	h := HashSeed
	for _, i := range indices {
		h ^= t.vals[i].Hash()
		h *= hashPrime
	}
	return h
}

// Column gathers attribute c of every tuple in ts into dst (reset to length
// zero first), returning the filled vector: the row-to-column transpose that
// turns an arena tuple batch into the column vectors the vectorised operator
// kernels run over.
func Column(ts []Tuple, c int, dst []value.Value) []value.Value {
	dst = dst[:0]
	for i := range ts {
		dst = append(dst, ts[i].vals[c])
	}
	return dst
}

// String renders the tuple as ⟨v1, v2, ...⟩ using the values' literal syntax.
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('<')
	for i, v := range t.vals {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte('>')
	return b.String()
}

// Ints is a convenience constructor building a tuple of integer values; it is
// heavily used by tests and workload generators.
func Ints(vals ...int64) Tuple {
	vs := make([]value.Value, len(vals))
	for i, v := range vals {
		vs[i] = value.NewInt(v)
	}
	return Tuple{vals: vs}
}

// Strings is a convenience constructor building a tuple of string values.
func Strings(vals ...string) Tuple {
	vs := make([]value.Value, len(vals))
	for i, v := range vals {
		vs[i] = value.NewString(v)
	}
	return Tuple{vals: vs}
}
