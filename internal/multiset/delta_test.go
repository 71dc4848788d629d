package multiset

import (
	"math"
	"math/rand"
	"testing"

	"mra/internal/tuple"
	"mra/internal/value"
)

// randomRelation builds a relation of up to span distinct single-int tuples
// with multiplicities in [1, 4].
func randomRelation(rng *rand.Rand, span int) *Relation {
	r := New(intSchema(1))
	for v := 0; v < span; v++ {
		if rng.Intn(2) == 0 {
			r.Add(tuple.Ints(int64(v)), uint64(1+rng.Intn(4)))
		}
	}
	return r
}

func TestDiffSharedTableIsEmpty(t *testing.T) {
	r := New(intSchema(1))
	r.Add(tuple.Ints(1), 2)
	r.Add(tuple.Ints(2), 1)
	add, remove := Diff(r, r.Clone())
	if !add.IsEmpty() || !remove.IsEmpty() {
		t.Fatalf("diff of a COW clone must be empty, got add=%v remove=%v", add, remove)
	}
}

func TestDiffApplyDeltaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		base := randomRelation(rng, 12)
		next := randomRelation(rng, 12)
		add, remove := Diff(base, next)

		// Add and remove are disjoint: every tuple here is an int, so no
		// tuple is respelled.
		add.Each(func(tp tuple.Tuple, _ uint64) bool {
			if remove.Contains(tp) {
				t.Fatalf("trial %d: tuple %v in both add and remove", trial, tp)
			}
			return true
		})

		got := base.Clone()
		got.ApplyDelta(add, remove)
		if !got.Equal(next) {
			t.Fatalf("trial %d: (base ∸ remove) ⊎ add = %v, want %v (base %v, add %v, remove %v)",
				trial, got, next, base, add, remove)
		}
		// The delta must not have mutated base through the COW clone.
		add2, remove2 := Diff(base, next)
		if !add2.Equal(add) || !remove2.Equal(remove) {
			t.Fatalf("trial %d: Diff is not stable over ApplyDelta on a clone", trial)
		}
	}
}

// TestDiffMovesRespelledTuplesWhole pins Diff on tuples both sides hold
// under different spellings: all of base's occurrences are removed and all
// of next's added, so applying the delta to base reproduces next's counts and
// spellings; a tuple both sides hold alike (here by pointer) is left out.
func TestDiffMovesRespelledTuplesWhole(t *testing.T) {
	two53 := int64(1) << 53
	f := func(x float64) tuple.Tuple { return tuple.New(value.NewFloat(x)) }
	base := New(intSchema(1))
	kept := tuple.Ints(1)
	base.Add(tuple.Ints(two53), 3)
	base.Add(kept, 2)
	base.Add(f(0), 1)
	base.Add(tuple.Ints(7), 1)
	next := base.Clone()
	next.Remove(tuple.Ints(two53), 3)
	next.Add(f(float64(two53)), 2) // down, and int → float
	next.Remove(f(0), 1)
	next.Add(f(math.Copysign(0, -1)), 4) // up, and +0 → −0
	next.Remove(tuple.Ints(7), 1)
	next.Add(tuple.Ints(8), 1)

	add, remove := Diff(base, next)
	for _, c := range []struct {
		rel  *Relation
		tup  tuple.Tuple
		want uint64
	}{
		{add, f(float64(two53)), 2}, {add, f(math.Copysign(0, -1)), 4}, {add, tuple.Ints(8), 1},
		{remove, tuple.Ints(two53), 3}, {remove, f(0), 1}, {remove, tuple.Ints(7), 1},
	} {
		if got, n := c.rel.Lookup(c.tup); n != c.want || !got.Identical(c.tup) {
			t.Errorf("delta holds %v ×%d, want %v ×%d", got, n, c.tup, c.want)
		}
	}
	if add.DistinctCount() != 3 || remove.DistinctCount() != 3 {
		t.Errorf("delta add=%v remove=%v moves more than the changed tuples", add, remove)
	}
	got := base.Clone()
	got.ApplyDelta(add, remove)
	next.Each(func(want tuple.Tuple, n uint64) bool {
		if have, m := got.Lookup(want); m != n || !have.Identical(want) {
			t.Errorf("(base ∸ remove) ⊎ add holds %v ×%d, next %v ×%d", have, m, want, n)
		}
		return true
	})
	if got.Cardinality() != next.Cardinality() {
		t.Errorf("(base ∸ remove) ⊎ add = %v, next %v", got, next)
	}
}

func TestApplyDeltaMergesDisjointWriters(t *testing.T) {
	base := New(intSchema(1))
	for v := int64(0); v < 4; v++ {
		base.Add(tuple.Ints(v), 1)
	}
	// Writer A bumps tuple 0's multiplicity; writer B deletes tuple 3 and
	// inserts tuple 9.  Applied in either order the merged state is the same.
	mk := func(order [2]int) *Relation {
		addA, remA := New(intSchema(1)), New(intSchema(1))
		addA.Add(tuple.Ints(0), 2)
		addB, remB := New(intSchema(1)), New(intSchema(1))
		remB.Add(tuple.Ints(3), 1)
		addB.Add(tuple.Ints(9), 1)
		deltas := [2][2]*Relation{{addA, remA}, {addB, remB}}
		got := base.Clone()
		for _, i := range order {
			got.ApplyDelta(deltas[i][0], deltas[i][1])
		}
		return got
	}
	ab, ba := mk([2]int{0, 1}), mk([2]int{1, 0})
	if !ab.Equal(ba) {
		t.Fatalf("disjoint deltas must commute: A;B=%v B;A=%v", ab, ba)
	}
	if ab.Multiplicity(tuple.Ints(0)) != 3 || ab.Contains(tuple.Ints(3)) || !ab.Contains(tuple.Ints(9)) {
		t.Fatalf("merged state wrong: %v", ab)
	}
}

func TestApplyDeltaClampsAtZero(t *testing.T) {
	base := New(intSchema(1))
	base.Add(tuple.Ints(1), 1)
	remove := New(intSchema(1))
	remove.Add(tuple.Ints(1), 5)
	remove.Add(tuple.Ints(2), 1) // not present at all
	got := base.Clone()
	got.ApplyDelta(nil, remove)
	if !got.IsEmpty() {
		t.Fatalf("monus must clamp at zero, got %v", got)
	}
}

// TestApplyDeltaRevivesTombstones checks the add-only delta — the Merge's
// sum of partial results and an insert statement's pair: it sums
// multiplicities, revives tombstones, and leaves the source untouched.
func TestApplyDeltaRevivesTombstones(t *testing.T) {
	s := intSchema(1)
	a, b := New(s), New(s)
	a.Add(tuple.Ints(1), 2)
	a.Add(tuple.Ints(2), 1)
	a.Add(tuple.Ints(3), 1)
	a.Remove(tuple.Ints(3), 1) // tombstone in the destination
	b.Add(tuple.Ints(1), 3)
	b.Add(tuple.Ints(3), 4)
	b.Add(tuple.Ints(5), 1)

	a.ApplyDelta(b, nil)
	if got := a.Multiplicity(tuple.Ints(1)); got != 5 {
		t.Errorf("a(1) = %d, want 5", got)
	}
	if got := a.Multiplicity(tuple.Ints(3)); got != 4 {
		t.Errorf("a(3) = %d, want 4 (tombstone revived)", got)
	}
	if a.Cardinality() != 11 || a.DistinctCount() != 4 {
		t.Errorf("cardinality/distinct = %d/%d, want 11/4", a.Cardinality(), a.DistinctCount())
	}
	if b.Cardinality() != 8 {
		t.Errorf("source changed: %s", b)
	}

	// Merging into a copy-on-write view must not corrupt the other view.
	base := New(s)
	base.Add(tuple.Ints(7), 1)
	view := base.Clone()
	view.ApplyDelta(b, nil)
	if base.Cardinality() != 1 {
		t.Errorf("COW base changed by ApplyDelta: %s", base)
	}
	if view.Multiplicity(tuple.Ints(1)) != 3 || view.Multiplicity(tuple.Ints(7)) != 1 {
		t.Errorf("view after merge = %s", view)
	}
}

func TestEachHashMatchesEach(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	r := randomRelation(rng, 32)
	seen := make(map[uint64]uint64)
	r.EachHash(func(tp tuple.Tuple, h uint64, n uint64) bool {
		if h != tp.Hash() {
			t.Fatalf("cached hash %d != recomputed %d for %v", h, tp.Hash(), tp)
		}
		seen[h] += n
		return true
	})
	total := uint64(0)
	for _, n := range seen {
		total += n
	}
	if total != r.Cardinality() {
		t.Fatalf("EachHash covered %d occurrences, want %d", total, r.Cardinality())
	}
}

func TestContainsHashTracksLiveness(t *testing.T) {
	r := New(intSchema(1))
	tp := tuple.Ints(42)
	if r.ContainsHash(tp.Hash()) {
		t.Fatal("empty relation must not contain the hash")
	}
	r.Add(tp, 2)
	if !r.ContainsHash(tp.Hash()) {
		t.Fatal("live tuple's hash must be contained")
	}
	r.Remove(tp, 2)
	if r.ContainsHash(tp.Hash()) {
		t.Fatal("tombstoned tuple's hash must not be contained")
	}
}
