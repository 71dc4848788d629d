package multiset

import (
	"maps"
	"testing"

	"mra/internal/tuple"
	"mra/internal/value"
)

// deltaMove applies one of the statements' Clone+ApplyDelta moves to a
// clone of a, with b as the delta, and returns the result with its model
// built from the operands' models: ⊎ (which 0) applies (b, nil), ∸ (1)
// applies (nil, b), and the update-shaped move (2) applies (π(h), h) for
// h = a ∩ b, h(t) = min(a(t), b(t)), and π = (%1, 0), which collapses
// tuples onto ones that may have just become tombstones.  Neither operand
// may change, and ApplyDelta must leave its result compacted.
func deltaMove(t *testing.T, which int, a, b *Relation, am, bm model) (*Relation, model) {
	t.Helper()
	res, want := a.Clone(), maps.Clone(am)
	switch which {
	case 0:
		res.ApplyDelta(b, nil)
		for k, n := range bm {
			want.add(k, n)
		}
	case 1:
		res.ApplyDelta(nil, b)
		for k, n := range bm {
			want.remove(k, n)
		}
	default:
		hit, img := New(a.Schema()), New(a.Schema())
		b.Each(func(tp tuple.Tuple, n uint64) bool {
			m := min(n, a.Multiplicity(tp))
			hit.Add(tp, m)
			img.Add(tuple.New(tp.At(0), value.NewInt(0)), m)
			return true
		})
		res.ApplyDelta(img, hit)
		for k, n := range bm {
			want.remove(k, min(n, am[k]))
		}
		for k, n := range bm {
			want.add([2]int64{k[0], 0}, min(n, am[k]))
		}
	}
	if dead := res.tab.n - res.tab.live; dead > res.tab.live && dead >= compactMinDead {
		t.Fatalf("move %d left %d tombstones beside %d live entries", which, dead, res.tab.live)
	}
	return res, want
}

// chainShape returns the average length of the non-empty bucket chains of r's
// table and the longest one.
func chainShape(r *Relation) (avg float64, longest int) {
	tab := r.tab
	used, total := 0, 0
	for _, hp := range tab.heads {
		for _, l := range hp.heads {
			n := 0
			for ; l != 0; l = tab.at(l - 1).next {
				n++
			}
			if n > 0 {
				used++
				total += n
				longest = max(longest, n)
			}
		}
	}
	return float64(total) / float64(used), longest
}

// TestHashDistribution checks the tuple hash on the key shapes the benchmark
// data has — sequential integers, and a grid of integer pairs — where a weak
// value hash would show first: bucket chains stay short (a uniform hash gives
// 1.52 on average at this load), and the low bit the two-worker partition
// exchange splits on (hash mod 2) divides the rows evenly.
func TestHashDistribution(t *testing.T) {
	seq := make([]tuple.Tuple, 0, 60000)
	for i := range 60000 {
		seq = append(seq, tuple.Ints(int64(i)))
	}
	grid := make([]tuple.Tuple, 0, 300*200)
	for i := range 300 {
		for j := range 200 {
			grid = append(grid, tuple.Ints(int64(i), int64(j)))
		}
	}
	for _, c := range []struct {
		name   string
		tuples []tuple.Tuple
	}{{"sequential ints", seq}, {"300x200 int pairs", grid}} {
		r := FromTuples(intSchema(c.tuples[0].Arity()), c.tuples...)
		if r.DistinctCount() != len(c.tuples) {
			t.Fatalf("%s: %d distinct tuples, want %d", c.name, r.DistinctCount(), len(c.tuples))
		}
		avg, longest := chainShape(r)
		if avg > 1.6 || longest > 8 {
			t.Errorf("%s: %d buckets, average chain %.3f (want ≤ 1.6), longest %d (want ≤ 8)",
				c.name, r.tab.buckets, avg, longest)
		}
		even := 0
		for _, tp := range c.tuples {
			if tp.Hash()%2 == 0 {
				even++
			}
		}
		share := float64(even) / float64(len(c.tuples))
		if share < 0.49 || share > 0.51 {
			t.Errorf("%s: hash mod 2 sends %.4f of the rows to partition 0, want 0.5 ± 0.01", c.name, share)
		}
		t.Logf("%s: %d buckets, average chain %.3f, longest %d, partition 0 share %.4f",
			c.name, r.tab.buckets, avg, longest, share)
	}
}
