package plan

import (
	"strings"
	"testing"

	"mra/internal/algebra"
	"mra/internal/multiset"
	"mra/internal/schema"
	"mra/internal/tuple"
	"mra/internal/value"
)

// TestSortOperator checks PlanOrdered/ExecuteOrdered: key order with
// descending directions, canonical tiebreak, and multiplicity expansion.
func TestSortOperator(t *testing.T) {
	s := schema.NewRelation("r",
		schema.Attribute{Name: "a", Type: value.KindInt},
		schema.Attribute{Name: "b", Type: value.KindInt})
	r := multiset.New(s)
	r.Add(tuple.Ints(1, 9), 2)
	r.Add(tuple.Ints(3, 1), 1)
	r.Add(tuple.Ints(1, 2), 1)
	r.Add(tuple.Ints(2, 5), 1)
	src := mapSource{"r": r}

	p, err := NewPlanner(src).PlanOrdered(algebra.NewRel("r"), catalogOf(src), []SortKey{{Col: 0, Desc: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(p.Root.Describe(), "Sort [%1 desc]") {
		t.Errorf("root = %s", p.Root.Describe())
	}
	ordered, rel, err := p.ExecuteOrdered(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Cardinality() != 5 || len(ordered) != 5 {
		t.Fatalf("ordered = %v", ordered)
	}
	// Descending on %1; the two a=1 tuples tie and fall back to canonical
	// order (<1,2> before <1,9>); multiplicity 2 expands to adjacent rows.
	want := []tuple.Tuple{tuple.Ints(3, 1), tuple.Ints(2, 5), tuple.Ints(1, 2), tuple.Ints(1, 9), tuple.Ints(1, 9)}
	for i, tp := range want {
		if !ordered[i].Equal(tp) {
			t.Fatalf("ordered[%d] = %s, want %s (full: %v)", i, ordered[i], tp, ordered)
		}
	}

	// Without keys there is no Sort root and no order: PlanOrdered is Plan.
	p, err = NewPlanner(src).PlanOrdered(algebra.NewRel("r"), catalogOf(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.HasPrefix(p.Root.Describe(), "Sort") {
		t.Errorf("keyless root = %s", p.Root.Describe())
	}
	if ordered, rel, err = p.ExecuteOrdered(src, nil); err != nil || ordered != nil || !rel.Equal(r) {
		t.Errorf("keyless execution = %v, %v, %v", ordered, rel, err)
	}

	// Out-of-range keys are rejected at plan time.
	if _, err := NewPlanner(src).PlanOrdered(algebra.NewRel("r"), catalogOf(src), []SortKey{{Col: 5}}); err == nil {
		t.Error("out-of-range sort key must fail")
	}
}

// TestSortAboveParallelRegion checks the ordered path composes with the
// exchange operators: the sort consumes the merged partials and the output
// order is deterministic regardless of worker scheduling.
func TestSortAboveParallelRegion(t *testing.T) {
	src := testSource(1000)
	e := algebra.NewGroupBy([]int{0}, algebra.AggSum, 1, algebra.NewRel("fact"))
	keys := []SortKey{{Col: 1, Desc: true}}

	serialPlan, err := NewPlanner(src).PlanOrdered(e, catalogOf(src), keys)
	if err != nil {
		t.Fatal(err)
	}
	serial, _, err := serialPlan.ExecuteOrdered(src, nil)
	if err != nil {
		t.Fatal(err)
	}

	pp := &Planner{Cards: src, Workers: 4, ParallelThreshold: 1}
	p, err := pp.PlanOrdered(e, catalogOf(src), keys)
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := countNodes(p); m == 0 {
		t.Fatalf("aggregate under the sort must be parallel:\n%s", p)
	}
	for round := 0; round < 5; round++ {
		ordered, _, err := p.ExecuteOrdered(src, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ordered) != len(serial) {
			t.Fatalf("round %d: %d rows, want %d", round, len(ordered), len(serial))
		}
		for i := range ordered {
			if !ordered[i].Equal(serial[i]) {
				t.Fatalf("round %d: row %d = %s, want %s", round, i, ordered[i], serial[i])
			}
		}
	}
}
