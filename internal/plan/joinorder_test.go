package plan

import (
	"context"
	"strings"
	"testing"

	"mra/internal/algebra"
	"mra/internal/multiset"
	"mra/internal/scalar"
	"mra/internal/tuple"
)

// starSource builds a star schema written worst-first: three 50-row
// dimensions and a 5000-row fact table keyed on each dimension.
func starSource() mapSource {
	src := make(mapSource, 4)
	for _, d := range []string{"d1", "d2", "d3"} {
		src[d] = groupedRelation(d, 50, 50)
	}
	fact := groupedRelation("fact", 0, 1)
	for i := 0; i < 5000; i++ {
		fact.Add(tuple.Ints(int64(i%50), int64(i)), 1)
	}
	src["fact"] = fact
	return src
}

// starWrittenWorst is the star query written in its worst order: the three
// dimensions cross-multiplied first, the fact table joined last.
func starWrittenWorst() algebra.Expr {
	return algebra.NewJoin(
		scalar.NewAnd(scalar.Eq(0, 6), scalar.NewAnd(scalar.Eq(2, 6), scalar.Eq(4, 6))),
		algebra.NewProduct(algebra.NewProduct(algebra.NewRel("d1"), algebra.NewRel("d2")), algebra.NewRel("d3")),
		algebra.NewRel("fact"))
}

// TestEnumeratorReplacesWrittenOrder checks that the DP enumerator rewrites
// the worst-first star query into a fact-first join tree — no cascaded cross
// products, every intermediate at fact size — and still computes the bag the
// written query denotes.
func TestEnumeratorReplacesWrittenOrder(t *testing.T) {
	src := starSource()
	p, err := (&Planner{Cards: analyze(src)}).Plan(starWrittenWorst(), catalogOf(src))
	if err != nil {
		t.Fatal(err)
	}
	rendering := p.String()
	// The written order's 50×50×50 dimension cross product must be gone; the
	// DP may still keep one tiny two-dimension cross product (2500 rows)
	// where it genuinely undercuts a 5000-row join intermediate, so only the
	// full triple product is ruled out.
	if strings.Count(rendering, "NestedLoopJoin") > 1 {
		t.Errorf("enumerated plan kept the cascaded cross products:\n%s", rendering)
	}
	if got := strings.Count(rendering, "HashJoin"); got < 2 {
		t.Errorf("enumerated plan has %d hash joins, want at least 2:\n%s", got, rendering)
	}
	// The written column order is restored above the reordered joins.
	if !strings.HasPrefix(rendering, "Project ") {
		t.Errorf("reordered plan must restore written column order with a projection:\n%s", rendering)
	}

	// The result is the written query's bag: dimension row k is (k, k) and
	// fact row i is (i mod 50, i), so each fact row joins exactly one row of
	// every dimension.
	want := multiset.New(p.Root.Schema())
	for i := int64(0); i < 5000; i++ {
		k := i % 50
		want.Add(tuple.Ints(k, k, k, k, k, k, k, i), 1)
	}
	var st Stats
	got, err := p.ExecuteStatsContext(context.Background(), src, &st)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("enumerated plan changed the result bag")
	}
	// No intermediate exceeds the fact table — far below the 125000-row
	// dimension cross product the written order starts with.
	if st.PeakRelationTuples > 5000 {
		t.Errorf("enumerated peak intermediate %d exceeds the 5000-row fact table:\n%s",
			st.PeakRelationTuples, p.Render(&st))
	}
}

// TestEnumeratorSkipsSmallAndHugeQueries pins the enumerator's bail-outs:
// two-relation joins keep the direct path, and the planner still compiles
// queries past the 12-leaf DP cap by falling back to the written order.
func TestEnumeratorSkipsSmallAndHugeQueries(t *testing.T) {
	src := starSource()
	two := algebra.NewJoin(scalar.Eq(0, 2), algebra.NewRel("d1"), algebra.NewRel("d2"))
	p, err := (&Planner{Cards: analyze(src)}).Plan(two, catalogOf(src))
	if err != nil {
		t.Fatal(err)
	}
	if strings.HasPrefix(p.String(), "Project ") {
		t.Errorf("two-relation join must not be reordered:\n%s", p)
	}

	wide := algebra.Expr(algebra.NewRel("d1"))
	arity := 2
	for i := 0; i < 13; i++ {
		wide = algebra.NewJoin(scalar.Eq(0, arity), wide, algebra.NewRel("d2"))
		arity += 2
	}
	if _, err := (&Planner{Cards: analyze(src)}).Plan(wide, catalogOf(src)); err != nil {
		t.Fatalf("planner must fall back past the DP leaf cap: %v", err)
	}
}
