package plan

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mra/internal/algebra"
	"mra/internal/multiset"
	"mra/internal/schema"
	"mra/internal/tuple"
	"mra/internal/value"
)

// expandRuns lists the occurrences a run list presents, in order.
func expandRuns(runs []Run) []tuple.Tuple {
	var out []tuple.Tuple
	for _, r := range runs {
		for k := uint64(0); k < r.Count; k++ {
			out = append(out, r.Tuple)
		}
	}
	return out
}

// TestSortOperator checks PlanOrdered/ExecuteRuns: key order with descending
// directions, canonical tiebreak, one run per distinct tuple, and a keyless
// window cut from canonical order.
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

	p, err := NewPlanner(src).PlanOrdered(algebra.NewRel("r"), catalogOf(src), Clause{Order: []SortKey{{Col: 0, Desc: true}}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(p.Root.Describe(), "Sort [%1 desc]") {
		t.Errorf("root = %s", p.Root.Describe())
	}
	rel, runs, err := p.ExecuteRuns(context.Background(), src, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Descending on %1; the two a=1 tuples tie and fall back to canonical
	// order (<1,2> before <1,9>); multiplicity 2 stays one run of 2.
	want := []Run{{tuple.Ints(3, 1), 1}, {tuple.Ints(2, 5), 1}, {tuple.Ints(1, 2), 1}, {tuple.Ints(1, 9), 2}}
	if rel.Cardinality() != 5 || len(runs) != len(want) {
		t.Fatalf("runs = %v", runs)
	}
	for i, w := range want {
		if !runs[i].Tuple.Equal(w.Tuple) || runs[i].Count != w.Count {
			t.Fatalf("runs[%d] = %v, want %v (full: %v)", i, runs[i], w, runs)
		}
	}

	// A keyless window cuts canonical order by counts: offset 2 skips <1,2>
	// and one copy of <1,9>, limit 2 keeps the other copy and <2,5>.
	p, err = NewPlanner(src).PlanOrdered(algebra.NewRel("r"), catalogOf(src), Clause{Offset: 2, Limit: 2, HasLimit: true})
	if err != nil {
		t.Fatal(err)
	}
	rel, runs, err = p.ExecuteRuns(context.Background(), src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(expandRuns(runs)); got != "[<1, 9> <2, 5>]" || rel.Cardinality() != 2 {
		t.Errorf("window = %s, relation %s", got, rel)
	}

	// Without a clause there is no Sort root and no order: PlanOrdered is Plan.
	p, err = NewPlanner(src).PlanOrdered(algebra.NewRel("r"), catalogOf(src), Clause{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.HasPrefix(p.Root.Describe(), "Sort") {
		t.Errorf("clause-less root = %s", p.Root.Describe())
	}
	if rel, runs, err = p.ExecuteRuns(context.Background(), src, nil); err != nil || runs != nil || !rel.Equal(r) {
		t.Errorf("clause-less execution = %v, %v, %v", runs, rel, err)
	}

	// Out-of-range keys and hidden counts are rejected at plan time.
	for _, c := range []Clause{{Order: []SortKey{{Col: 5}}}, {Order: []SortKey{{Col: 0}}, Hidden: 3}} {
		if _, err := NewPlanner(src).PlanOrdered(algebra.NewRel("r"), catalogOf(src), c); err == nil {
			t.Errorf("clause %+v must fail", c)
		}
	}
}

// TestSortAboveParallelRegion checks the ordered path composes with the
// exchange operators: the sort consumes the merged partials and the output
// order is deterministic regardless of worker scheduling.
func TestSortAboveParallelRegion(t *testing.T) {
	src := testSource(1000)
	e := algebra.NewGroupBy([]int{0}, algebra.AggSum, 1, algebra.NewRel("fact"))
	clause := Clause{Order: []SortKey{{Col: 1, Desc: true}}}

	serialPlan, err := NewPlanner(src).PlanOrdered(e, catalogOf(src), clause)
	if err != nil {
		t.Fatal(err)
	}
	_, serial, err := serialPlan.ExecuteRuns(context.Background(), src, nil)
	if err != nil {
		t.Fatal(err)
	}

	pp := &Planner{Cards: src, Workers: 4, ParallelThreshold: 1}
	p, err := pp.PlanOrdered(e, catalogOf(src), clause)
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := countNodes(p); m == 0 {
		t.Fatalf("aggregate under the sort must be parallel:\n%s", p)
	}
	for round := 0; round < 5; round++ {
		_, runs, err := p.ExecuteRuns(context.Background(), src, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != len(serial) {
			t.Fatalf("round %d: %d runs, want %d", round, len(runs), len(serial))
		}
		for i := range runs {
			if !runs[i].Tuple.Equal(serial[i].Tuple) || runs[i].Count != serial[i].Count {
				t.Fatalf("round %d: run %d = %v, want %v", round, i, runs[i], serial[i])
			}
		}
	}
}

// TestPropertySortClauseMatchesReference checks the Sort root against the
// clause's definition, written here without the operator's code: expand the
// unordered result's occurrences in canonical order, stable-sort them on the
// keys, cut the OFFSET/LIMIT window and strip the hidden columns.  Bags carry
// multiplicities up to 5; keys mix directions; offsets and limits include 0
// and values past the total; every width from 1 to 8 must present the same
// occurrences, and its relation must hold exactly them.  An inactive clause
// plans no Sort and returns no order.
func TestPropertySortClauseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4646))
	pool := []value.Value{value.NewInt(1), value.NewInt(2), value.NewInt(3), value.NewFloat(2.5),
		value.NewString("x"), value.NewString("y"), value.Null}
	attrs := []schema.Attribute{{Name: "a"}, {Name: "b"}, {Name: "c"}}
	for round := 0; round < 150; round++ {
		r := multiset.New(schema.NewRelation("r", attrs...))
		for n := rng.Intn(12); n > 0; n-- {
			r.Add(tuple.New(pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]), uint64(1+rng.Intn(5)))
		}
		src := mapSource{"r": r}
		cols := rng.Perm(3)[:1+rng.Intn(3)]
		e := algebra.NewProject(cols, algebra.NewRel("r"))
		unordered, err := mustPlan(t, e, src).Execute(src)
		if err != nil {
			t.Fatal(err)
		}
		total := unordered.Cardinality()
		bound := func() uint64 {
			switch rng.Intn(4) {
			case 0:
				return 0
			case 1:
				return total + uint64(1+rng.Intn(3))
			default:
				return uint64(rng.Intn(int(total) + 1))
			}
		}
		c := Clause{Hidden: rng.Intn(len(cols)), Offset: bound()}
		if rng.Intn(3) > 0 {
			c.Limit, c.HasLimit = bound(), true
		}
		for k := rng.Intn(3); k > 0; k-- {
			c.Order = append(c.Order, SortKey{Col: rng.Intn(len(cols)), Desc: rng.Intn(2) == 0})
		}

		var want []tuple.Tuple
		unordered.EachSorted(func(tp tuple.Tuple, n uint64) bool {
			for ; n > 0; n-- {
				want = append(want, tp)
			}
			return true
		})
		sort.SliceStable(want, func(i, j int) bool {
			for _, k := range c.Order {
				if d := want[i].At(k.Col).Compare(want[j].At(k.Col)); d != 0 {
					return d < 0 != k.Desc
				}
			}
			return false
		})
		want = want[min(c.Offset, total):]
		if c.HasLimit {
			want = want[:min(c.Limit, uint64(len(want)))]
		}
		visible := make([]int, len(cols)-c.Hidden)
		for i := range visible {
			visible[i] = i
		}
		for i, tp := range want {
			want[i], _ = tp.Project(visible)
		}

		for _, w := range []int{1, 2, 4, 8} {
			pl := &Planner{Cards: src, Workers: w, ParallelThreshold: 1, MorselSize: 1 + rng.Intn(3), BatchSize: 1 + rng.Intn(3)}
			p, err := pl.PlanOrdered(e, catalogOf(src), c)
			if err != nil {
				t.Fatalf("round %d workers=%d: %v", round, w, err)
			}
			rel, runs, err := p.ExecuteRuns(context.Background(), src, nil)
			if err != nil {
				t.Fatalf("round %d workers=%d: %v", round, w, err)
			}
			// An inactive clause plans no Sort, and the result has no order.
			if got := expandRuns(runs); c.Active() && fmt.Sprint(got) != fmt.Sprint(want) || !c.Active() && runs != nil {
				t.Fatalf("round %d workers=%d clause %+v over %s:\n got %v\nwant %v", round, w, c, unordered, got, want)
			}
			for _, run := range runs {
				if run.Count == 0 {
					t.Fatalf("round %d workers=%d: empty run %v", round, w, run)
				}
			}
			bag := multiset.New(rel.Schema())
			for _, tp := range want {
				bag.Add(tp, 1)
			}
			if !rel.Equal(bag) || rel.Schema().Arity() != len(visible) {
				t.Fatalf("round %d workers=%d: relation %s does not hold the presented runs %v", round, w, rel, want)
			}
		}
	}
}
