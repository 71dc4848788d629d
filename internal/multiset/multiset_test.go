package multiset

import (
	"strings"
	"testing"

	"mra/internal/schema"
	"mra/internal/tuple"
	"mra/internal/value"
)

func intSchema(n int) schema.Relation {
	attrs := make([]schema.Attribute, n)
	for i := range attrs {
		attrs[i] = schema.Attribute{Name: string(rune('a' + i)), Type: value.KindInt}
	}
	return schema.Anonymous(attrs...)
}

func TestAddRemoveMultiplicity(t *testing.T) {
	r := New(intSchema(1))
	tp := tuple.Ints(7)
	if r.Contains(tp) || !r.IsEmpty() {
		t.Error("fresh relation must be empty")
	}
	r.Add(tp, 3)
	if got := r.Multiplicity(tp); got != 3 {
		t.Errorf("multiplicity = %d, want 3", got)
	}
	r.Add(tp, 0)
	if got := r.Multiplicity(tp); got != 3 {
		t.Error("adding zero must be a no-op")
	}
	if r.Cardinality() != 3 || r.DistinctCount() != 1 {
		t.Errorf("cardinality = %d, distinct = %d", r.Cardinality(), r.DistinctCount())
	}
	if removed := r.Remove(tp, 2); removed != 2 {
		t.Errorf("Remove returned %d", removed)
	}
	if got := r.Multiplicity(tp); got != 1 {
		t.Errorf("multiplicity after removal = %d", got)
	}
	if removed := r.Remove(tp, 5); removed != 1 {
		t.Errorf("clamped removal returned %d", removed)
	}
	if r.Contains(tp) || r.Cardinality() != 0 {
		t.Error("relation must be empty after full removal")
	}
	if removed := r.Remove(tp, 1); removed != 0 {
		t.Error("removing from empty relation removes nothing")
	}
	if removed := r.Remove(tp, 0); removed != 0 {
		t.Error("removing zero occurrences removes nothing")
	}
}

func TestSetMultiplicity(t *testing.T) {
	r := New(intSchema(1))
	tp := tuple.Ints(1)
	r.SetMultiplicity(tp, 5)
	if r.Multiplicity(tp) != 5 || r.Cardinality() != 5 {
		t.Error("SetMultiplicity insert")
	}
	r.SetMultiplicity(tp, 2)
	if r.Multiplicity(tp) != 2 || r.Cardinality() != 2 {
		t.Error("SetMultiplicity overwrite")
	}
	r.SetMultiplicity(tp, 0)
	if r.Contains(tp) || r.Cardinality() != 0 || r.DistinctCount() != 0 {
		t.Error("SetMultiplicity to zero must delete")
	}
}

func TestFromTuplesAccumulates(t *testing.T) {
	r := FromTuples(intSchema(1), tuple.Ints(1), tuple.Ints(2), tuple.Ints(1))
	if r.Multiplicity(tuple.Ints(1)) != 2 || r.Multiplicity(tuple.Ints(2)) != 1 {
		t.Errorf("FromTuples: %v", r)
	}
	if r.Cardinality() != 3 || r.DistinctCount() != 2 {
		t.Error("FromTuples counts")
	}
}

// TestEachVisitsChunks checks Each visits every distinct tuple once with its
// multiplicity, and stops when fn returns false.
func TestEachVisitsChunks(t *testing.T) {
	r := FromTuples(intSchema(1), tuple.Ints(1), tuple.Ints(1), tuple.Ints(2))
	var distinct int
	var occurrences uint64
	r.Each(func(_ tuple.Tuple, n uint64) bool { distinct++; occurrences += n; return true })
	if distinct != 2 || occurrences != 3 {
		t.Errorf("distinct=%d occurrences=%d", distinct, occurrences)
	}
	// Early termination.
	count := 0
	r.Each(func(_ tuple.Tuple, _ uint64) bool { count++; return false })
	if count != 1 {
		t.Error("Each must stop when fn returns false")
	}
}

func TestTuplesAndDistinctSorted(t *testing.T) {
	r := FromTuples(intSchema(1), tuple.Ints(3), tuple.Ints(1), tuple.Ints(3))
	all := r.Tuples()
	if len(all) != 3 || !all[0].Equal(tuple.Ints(1)) || !all[2].Equal(tuple.Ints(3)) {
		t.Errorf("Tuples = %v", all)
	}
	var d []tuple.Tuple
	r.EachSorted(func(tp tuple.Tuple, _ uint64) bool { d = append(d, tp); return true })
	if len(d) != 2 || !d[0].Equal(tuple.Ints(1)) || !d[1].Equal(tuple.Ints(3)) {
		t.Errorf("EachSorted = %v", d)
	}
	// EachSorted early stop.
	n := 0
	r.EachSorted(func(_ tuple.Tuple, _ uint64) bool { n++; return false })
	if n != 1 {
		t.Error("EachSorted must honour early stop")
	}
}

func TestCloneIndependence(t *testing.T) {
	r := FromTuples(intSchema(1), tuple.Ints(1))
	c := r.Clone()
	c.Add(tuple.Ints(2), 1)
	if r.Contains(tuple.Ints(2)) {
		t.Error("Clone must be independent")
	}
	if !c.Contains(tuple.Ints(1)) {
		t.Error("Clone must carry original contents")
	}
}

func TestCopyOnWriteBothDirections(t *testing.T) {
	r := FromTuples(intSchema(1), tuple.Ints(1))
	c := r.Clone()
	// Mutating the ORIGINAL after cloning must not leak into the clone.
	r.Add(tuple.Ints(9), 3)
	if c.Contains(tuple.Ints(9)) || c.Cardinality() != 1 {
		t.Error("mutating the original must not affect an earlier clone")
	}
	// A second clone taken after the mutation sees the new state.
	c2 := r.Clone()
	if c2.Multiplicity(tuple.Ints(9)) != 3 {
		t.Error("later clone must carry the mutated state")
	}
	// Remove and SetMultiplicity must also trigger the lazy copy.
	c2.Remove(tuple.Ints(9), 3)
	c3 := r.Clone()
	c3.SetMultiplicity(tuple.Ints(1), 0)
	if r.Multiplicity(tuple.Ints(9)) != 3 || !r.Contains(tuple.Ints(1)) {
		t.Error("mutating clones must not affect the original")
	}
}

func TestWithSchemaMutationSafe(t *testing.T) {
	r := FromTuples(intSchema(1), tuple.Ints(1))
	v := r.WithSchema(schema.NewRelation("temp", schema.Attribute{Name: "x", Type: value.KindInt}))
	v.Add(tuple.Ints(2), 1)
	if r.Contains(tuple.Ints(2)) {
		t.Error("mutating a WithSchema view must not affect the original")
	}
	r.Add(tuple.Ints(3), 1)
	if v.Contains(tuple.Ints(3)) {
		t.Error("mutating the original must not affect a WithSchema view")
	}
}

func TestRemoveLeavesReAddableTombstone(t *testing.T) {
	r := FromTuples(intSchema(1), tuple.Ints(1), tuple.Ints(2))
	if got := r.Remove(tuple.Ints(1), 5); got != 1 {
		t.Errorf("Remove clamped = %d, want 1", got)
	}
	if r.Contains(tuple.Ints(1)) || r.DistinctCount() != 1 || r.Cardinality() != 1 {
		t.Error("removed tuple must not be visible")
	}
	r.Add(tuple.Ints(1), 4)
	if r.Multiplicity(tuple.Ints(1)) != 4 || r.DistinctCount() != 2 || r.Cardinality() != 5 {
		t.Error("re-adding a fully removed tuple must revive it")
	}
	// The revived entry holds the tuple added, not the one removed: 2^53.0
	// equals 2^53 but adds 1 differently.  A live entry keeps its tuple, and
	// Lookup returns the one held.
	big, bigf := tuple.Ints(1<<53), tuple.New(value.NewFloat(1<<53))
	r.Add(big, 1)
	r.Remove(big, 1)
	r.Add(bigf, 2)
	if held, n := r.Lookup(big); n != 2 || held.At(0).Kind() != value.KindFloat {
		t.Errorf("Lookup after revival = %v ×%d, want 2^53.0 ×2", held, n)
	}
	r.Add(big, 1)
	if held, n := r.Lookup(big); n != 3 || held.At(0).Kind() != value.KindFloat {
		t.Errorf("Lookup after adding to a live entry = %v ×%d, want 2^53.0 ×3", held, n)
	}
	if held, n := r.Lookup(tuple.Ints(7)); n != 0 || !held.Equal(tuple.Ints(7)) {
		t.Errorf("Lookup of an absent tuple = %v ×%d, want it back ×0", held, n)
	}
}

func TestWithSchema(t *testing.T) {
	r := FromTuples(intSchema(1), tuple.Ints(1))
	renamed := r.WithSchema(schema.NewRelation("temp", schema.Attribute{Name: "x", Type: value.KindInt}))
	if renamed.Schema().Name() != "temp" {
		t.Error("WithSchema must carry the new schema")
	}
	if renamed.Cardinality() != 1 || !renamed.Contains(tuple.Ints(1)) {
		t.Error("WithSchema must share contents")
	}
}

func TestEqualAndSubset(t *testing.T) {
	s := intSchema(1)
	a := FromTuples(s, tuple.Ints(1), tuple.Ints(1), tuple.Ints(2))
	b := FromTuples(s, tuple.Ints(2), tuple.Ints(1), tuple.Ints(1))
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("order of insertion must not matter for equality")
	}
	c := FromTuples(s, tuple.Ints(1), tuple.Ints(2))
	if a.Equal(c) {
		t.Error("different multiplicities must not be equal")
	}
	if !c.SubsetOf(a) {
		t.Error("c ⊑ a must hold")
	}
	if a.SubsetOf(c) {
		t.Error("a ⊑ c must not hold")
	}
	empty := New(s)
	if !empty.SubsetOf(a) || !empty.SubsetOf(empty) {
		t.Error("∅ is a multi-subset of everything")
	}
	d := FromTuples(s, tuple.Ints(9))
	if d.SubsetOf(a) {
		t.Error("foreign tuple must break the subset relation")
	}
	// Same total cardinality, different contents.
	e := FromTuples(s, tuple.Ints(5), tuple.Ints(5), tuple.Ints(6))
	if a.Equal(e) {
		t.Error("same cardinality but different tuples must not be equal")
	}
}

func TestStringRendering(t *testing.T) {
	r := FromTuples(intSchema(1), tuple.Ints(2), tuple.Ints(2), tuple.Ints(1))
	s := r.String()
	if !strings.Contains(s, "^2") || !strings.HasPrefix(s, "{") {
		t.Errorf("String = %q", s)
	}
	if New(intSchema(1)).String() != "{}" {
		t.Error("empty relation renders as {}")
	}
}

// TestEachEntryRangeDisjointCover checks that EachBatch over any partition
// of [0, EntrySpan()) into entry ranges delivers every live tuple exactly
// once with its full multiplicity, skipping tombstones, in batches of at most
// the asked size, and that out-of-range bounds are clamped.
func TestEachEntryRangeDisjointCover(t *testing.T) {
	s := schema.NewRelation("r",
		schema.Attribute{Name: "a", Type: value.KindInt},
		schema.Attribute{Name: "b", Type: value.KindInt})
	r := New(s)
	for i := 0; i < 100; i++ {
		r.Add(tuple.Ints(int64(i%30), int64(i%7)), uint64(1+i%4))
	}
	r.Remove(tuple.Ints(3, 3), 1<<40) // tombstone mid-arena

	for _, step := range []int{1, 7, 17, 1000} {
		for _, size := range []int{1, 3, 64} {
			sum := New(s)
			span := r.EntrySpan()
			for lo := 0; lo < span; lo += step {
				r.EachBatch(lo, lo+step, size, func(tuples []tuple.Tuple, counts []uint64) bool {
					if len(tuples) == 0 || len(tuples) > size || len(counts) != len(tuples) {
						t.Fatalf("step %d size %d: batch of %d tuples, %d counts", step, size, len(tuples), len(counts))
					}
					sum.AddBatch(tuples, counts)
					return true
				})
			}
			if !sum.Equal(r) {
				t.Fatalf("step %d size %d: range union %s != relation %s", step, size, sum, r)
			}
		}
	}

	// Clamping: negative lo and hi past the span are tolerated.
	whole := New(s)
	r.EachBatch(-5, r.EntrySpan()+100, 8, func(tuples []tuple.Tuple, counts []uint64) bool {
		whole.AddBatch(tuples, counts)
		return true
	})
	if !whole.Equal(r) {
		t.Fatalf("clamped full range %s != relation %s", whole, r)
	}

	// Early termination.
	calls := 0
	r.EachBatch(0, r.EntrySpan(), 1, func([]tuple.Tuple, []uint64) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Errorf("early stop after %d calls, want 3", calls)
	}
}

// TestAddBatch checks the batched add equals a loop of Adds — accumulation,
// zero-count skipping — and respects copy-on-write sharing.
func TestAddBatch(t *testing.T) {
	s := schema.NewRelation("r", schema.Attribute{Name: "a", Type: value.KindInt})
	tuples := []tuple.Tuple{tuple.Ints(1), tuple.Ints(2), tuple.Ints(1), tuple.Ints(3)}
	counts := []uint64{2, 1, 3, 0}

	batched := New(s)
	batched.AddBatch(tuples, counts)
	looped := New(s)
	for i := range tuples {
		looped.Add(tuples[i], counts[i])
	}
	if !batched.Equal(looped) {
		t.Fatalf("AddBatch %s != looped Adds %s", batched, looped)
	}
	if batched.Contains(tuple.Ints(3)) {
		t.Error("zero-count chunk inserted")
	}

	base := New(s)
	base.Add(tuple.Ints(9), 1)
	view := base.Clone()
	view.AddBatch(tuples, counts)
	if base.Cardinality() != 1 {
		t.Errorf("COW base changed by AddBatch: %s", base)
	}
	if view.Multiplicity(tuple.Ints(1)) != 5 {
		t.Errorf("view(1) = %d, want 5", view.Multiplicity(tuple.Ints(1)))
	}
}
