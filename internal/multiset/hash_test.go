package multiset

import (
	"testing"

	"mra/internal/tuple"
)

// setOpModel applies Union (which 0), Difference (1) or Intersection (2) to a
// and b, checks the result against the operators' pointwise definitions over
// the operands' models, and returns the result with its model.  Difference
// must leave its result compacted: the cached-hash walk removes first and
// compacts once.
func setOpModel(t *testing.T, which int, a, b *Relation, am, bm model) (*Relation, model) {
	t.Helper()
	var (
		res *Relation
		err error
	)
	want := model{}
	switch which {
	case 0:
		res, err = Union(a, b)
		for k, n := range am {
			want.add(k, n)
		}
		for k, n := range bm {
			want.add(k, n)
		}
	case 1:
		res, err = Difference(a, b)
		for k, n := range am {
			if n > bm[k] {
				want.add(k, n-bm[k])
			}
		}
		if dead := res.tab.n - res.tab.live; dead > res.tab.live && dead >= compactMinDead {
			t.Fatalf("Difference left %d tombstones beside %d live entries", dead, res.tab.live)
		}
	default:
		res, err = Intersection(a, b)
		for k, n := range am {
			want.add(k, min(n, bm[k]))
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	got := model{}
	res.Each(func(tp tuple.Tuple, n uint64) bool {
		got.add(keyOf(tp), n)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("set operator %d = %v, want %v", which, got, want)
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("set operator %d = %v, want %v", which, got, want)
		}
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
