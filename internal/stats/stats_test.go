package stats

import (
	"math"
	"math/rand"
	"testing"

	"mra/internal/multiset"
	"mra/internal/schema"
	"mra/internal/tuple"
	"mra/internal/value"
)

func testSchema() schema.Relation {
	return schema.NewRelation("t",
		schema.Attribute{Name: "a", Type: value.KindInt},
		schema.Attribute{Name: "b", Type: value.KindInt},
	)
}

func TestSketchEstimateAccuracy(t *testing.T) {
	for _, n := range []int{0, 1, 10, 100, 1000, 50000} {
		s := NewSketch()
		for i := 0; i < n; i++ {
			s.Add(tuple.Ints(int64(i)).Hash())
		}
		got := s.Estimate()
		tol := 0.05 * float64(n)
		if tol < 2 {
			tol = 2
		}
		if math.Abs(got-float64(n)) > tol {
			t.Fatalf("n=%d: estimate %.1f outside ±%.1f", n, got, tol)
		}
	}
}

func TestAnalyzeSummaries(t *testing.T) {
	r := multiset.New(testSchema())
	for i := 0; i < 1000; i++ {
		r.Add(tuple.Ints(int64(i%10), int64(i)), 2)
	}
	st := Analyze(r, 7)
	if st.Version() != 7 {
		t.Fatalf("version = %d", st.Version())
	}
	if st.Rows() != 2000 {
		t.Fatalf("rows = %.0f", st.Rows())
	}
	if ndv, ok := st.NDV(0); !ok || math.Abs(ndv-10) > 1 {
		t.Fatalf("NDV(a) = %.1f, %v", ndv, ok)
	}
	if ndv, ok := st.NDV(1); !ok || math.Abs(ndv-1000) > 50 {
		t.Fatalf("NDV(b) = %.1f, %v", ndv, ok)
	}
	min, max, ok := st.Range(1)
	if !ok || min.Int() != 0 || max.Int() != 999 {
		t.Fatalf("range(b) = %v..%v, %v", min, max, ok)
	}
	// Median of column b is ~500: FracLE should land near 0.5.
	if f, ok := st.FracLE(1, value.NewInt(500), true); !ok || math.Abs(f-0.5) > 0.1 {
		t.Fatalf("FracLE(b<=500) = %.3f, %v", f, ok)
	}
	if f, ok := st.EqFraction(0, value.NewInt(3)); !ok || math.Abs(f-0.1) > 0.03 {
		t.Fatalf("EqFraction(a=3) = %.3f, %v", f, ok)
	}
	if f, ok := st.EqFraction(0, value.NewInt(99)); !ok || f != 0 {
		t.Fatalf("EqFraction(a=99) = %.3f, %v (want 0: outside range)", f, ok)
	}
}

func TestAnalyzeNullsAndEmpty(t *testing.T) {
	r := multiset.New(testSchema())
	empty := Analyze(r, 1)
	if empty.Rows() != 0 {
		t.Fatalf("empty rows = %.0f", empty.Rows())
	}
	if _, ok := empty.FracLE(0, value.NewInt(1), true); ok {
		t.Fatal("empty relation should have no histogram")
	}
	r.Add(tuple.New(value.Null, value.NewInt(1)), 3)
	r.Add(tuple.Ints(5, 2), 1)
	st := Analyze(r, 2)
	if f := st.NullFraction(0); math.Abs(f-0.75) > 1e-9 {
		t.Fatalf("null fraction = %.3f", f)
	}
	if f, ok := st.EqFraction(0, value.Null); !ok || math.Abs(f-0.75) > 1e-9 {
		t.Fatalf("EqFraction(null) = %.3f, %v", f, ok)
	}
}

// TestApplyDeltaMatchesRebuild drives random add/remove delta streams through
// incremental maintenance and checks the incremental summary against a full
// rebuild of the final relation: row and null counts must agree exactly, and
// the (grow-only) distinct sketch must bound the rebuilt NDV from above
// within HLL error.
func TestApplyDeltaMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rel := multiset.New(testSchema())
		for i := 0; i < 500; i++ {
			rel.Add(tuple.Ints(rng.Int63n(50), rng.Int63n(1000)), uint64(1+rng.Intn(3)))
		}
		st := Analyze(rel, 1)
		for step := 0; step < 20; step++ {
			add := multiset.New(testSchema())
			remove := multiset.New(testSchema())
			for i := 0; i < 30; i++ {
				add.Add(tuple.Ints(rng.Int63n(50), rng.Int63n(1000)), uint64(1+rng.Intn(2)))
			}
			// Remove a random sample of existing tuples.
			rel.Each(func(tp tuple.Tuple, count uint64) bool {
				if rng.Intn(20) == 0 {
					n := uint64(rng.Intn(int(count)) + 1)
					remove.Add(tp, n)
				}
				return true
			})
			rel.ApplyDelta(add, remove)
			st = st.ApplyDelta(add, remove)
		}
		rebuilt := Analyze(rel, 1)
		if math.Abs(st.Rows()-rebuilt.Rows()) > 1e-6 {
			t.Fatalf("seed %d: incremental rows %.1f != rebuilt %.1f", seed, st.Rows(), rebuilt.Rows())
		}
		for col := 0; col < 2; col++ {
			inc, _ := st.NDV(col)
			reb, _ := rebuilt.NDV(col)
			// Incremental sketches only grow, so they must dominate the
			// rebuilt estimate up to twice the HLL relative error.
			if inc < reb*(1-2*0.0163) {
				t.Fatalf("seed %d col %d: incremental NDV %.1f below rebuilt %.1f", seed, col, inc, reb)
			}
			// And they may not overshoot what was ever observed (50 / 1000
			// possible values plus sketch error).
			limit := []float64{50, 1000}[col] * 1.1
			if inc > limit {
				t.Fatalf("seed %d col %d: incremental NDV %.1f above limit %.1f", seed, col, inc, limit)
			}
		}
		// Histogram totals track the decremented row counts: overall FracLE
		// at max must stay 1 within clamping error.
		if f, ok := st.FracLE(0, value.NewInt(49), true); ok && f < 0.8 {
			t.Fatalf("seed %d: FracLE at max = %.3f", seed, f)
		}
	}
}

func TestWithVersion(t *testing.T) {
	r := multiset.New(testSchema())
	r.Add(tuple.Ints(1, 2), 1)
	st := Analyze(r, 3)
	st2 := st.WithVersion(9)
	if st.Version() != 3 || st2.Version() != 9 {
		t.Fatalf("versions = %d, %d", st.Version(), st2.Version())
	}
	if st2.Rows() != st.Rows() {
		t.Fatal("WithVersion must share summaries")
	}
}

func TestHistogramBucketsAndMerge(t *testing.T) {
	var vals []value.Value
	var counts []uint64
	for i := 0; i < 256; i++ {
		vals = append(vals, value.NewInt(int64(i)))
		counts = append(counts, 1)
	}
	h := buildHistogram(vals, counts, 8)
	lo, hi, count := h.Buckets()
	if len(hi) != 8 || len(lo) != 8 || len(count) != 8 {
		t.Fatalf("buckets = %d", len(hi))
	}
	sum := 0.0
	for _, c := range count {
		sum += c
	}
	if sum != 256 {
		t.Fatalf("total = %.0f", sum)
	}
	a, b := NewSketch(), NewSketch()
	for i := 0; i < 100; i++ {
		a.Add(tuple.Ints(int64(i)).Hash())
		b.Add(tuple.Ints(int64(i + 50)).Hash())
	}
	a.Merge(b)
	if est := a.Estimate(); math.Abs(est-150) > 10 {
		t.Fatalf("merged estimate = %.1f", est)
	}
}

// TestKeyColumnRule pins ANALYZE's one key rule: the lowest-ordinal column
// whose NDV is at least half the distinct-tuple count, and no key for an
// empty relation or when every column repeats its values.
func TestKeyColumnRule(t *testing.T) {
	build := func(n int, row func(i int) (int64, int64)) *multiset.Relation {
		r := multiset.New(testSchema())
		for i := 0; i < n; i++ {
			r.Add(tuple.Ints(row(i)), 1)
		}
		return r
	}
	for _, c := range []struct {
		name string
		r    *multiset.Relation
		want int
	}{
		{"unique first column", build(4096, func(i int) (int64, int64) { return int64(i), int64(i % 3) }), 0},
		{"unique second column", build(1000, func(i int) (int64, int64) { return int64(i % 50), int64(i) }), 1},
		{"half-distinct first column", build(1000, func(i int) (int64, int64) { return int64(i / 2), int64(i) }), 0},
		{"no selective column", build(1000, func(i int) (int64, int64) { return int64(i % 40), int64(i / 40) }), -1},
		{"empty", build(0, nil), -1},
	} {
		if got := Analyze(c.r, 0).KeyColumn(); got != c.want {
			t.Errorf("%s: KeyColumn = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestSketchEstimateMemo checks the memoised estimate against a fresh
// computation after every kind of change: Add that raises a register, Add
// that does not, Merge, and Clone followed by Add.
func TestSketchEstimateMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSketch()
	for i := 0; i < 3000; i++ {
		h := rng.Uint64()
		s.Add(h)
		if i%7 == 0 {
			s.Add(h)
		}
		if got, want := s.Estimate(), s.estimate(); got != want {
			t.Fatalf("after %d adds: memoised estimate %v, registers say %v", i+1, got, want)
		}
	}
	o := NewSketch()
	for i := 0; i < 500; i++ {
		o.Add(rng.Uint64())
	}
	c := s.Clone()
	if c.Estimate() != s.Estimate() {
		t.Fatalf("clone estimates %v, original %v", c.Estimate(), s.Estimate())
	}
	s.Merge(o)
	c.Add(rng.Uint64())
	for _, sk := range []*Sketch{s, c, o} {
		if got, want := sk.Estimate(), sk.estimate(); got != want {
			t.Fatalf("memoised estimate %v, registers say %v", got, want)
		}
	}
}

// TestApplyDeltaSharesUnraisedSketches pins the sketches' copy-on-write: an
// update delta whose key column repeats an observed value shares that
// column's sketch with the old table instead of copying 4 KiB, a delta that
// raises a register gets a sketch of its own, and the old table — which a
// snapshot may still hold — keeps its registers either way.
func TestApplyDeltaSharesUnraisedSketches(t *testing.T) {
	rel := multiset.New(testSchema())
	for i := int64(0); i < 500; i++ {
		rel.Add(tuple.Ints(i, i*7), 1)
	}
	st := Analyze(rel, 1)
	before := []*Sketch{st.tuples.Clone(), st.cols[0].sketch.Clone(), st.cols[1].sketch.Clone()}
	next := st
	for i := int64(0); i < 200; i++ {
		add, remove := multiset.New(testSchema()), multiset.New(testSchema())
		remove.Add(tuple.Ints(i, i*7), 1)
		add.Add(tuple.Ints(i, 10000+i), 1)
		prev := next
		next = next.ApplyDelta(add, remove)
		if next.cols[0].sketch != prev.cols[0].sketch {
			t.Fatalf("update %d: the key column's sketch was copied though no register rose", i)
		}
	}
	if next.cols[1].sketch == st.cols[1].sketch || next.tuples == st.tuples {
		t.Fatal("200 new values raised no register of the value and tuple sketches")
	}
	for i, sk := range []*Sketch{st.tuples, st.cols[0].sketch, st.cols[1].sketch} {
		for r := range sk.reg {
			if sk.reg[r] != before[i].reg[r] {
				t.Fatalf("sketch %d of the old table changed at register %d", i, r)
			}
		}
	}
	if e := next.cols[1].sketch.Estimate(); e < 650 {
		t.Fatalf("value column sketch estimates %.1f after 200 new values over 500, want about 700", e)
	}
}
