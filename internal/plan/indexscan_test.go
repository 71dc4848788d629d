package plan

import (
	"fmt"
	"strings"
	"testing"

	"mra/internal/algebra"
	"mra/internal/multiset"
	"mra/internal/scalar"
	"mra/internal/schema"
	"mra/internal/tuple"
	"mra/internal/value"
)

// keyedSource returns r(id, grp) with rows ids, grp = id mod 7, keyed on id
// when keyed is set, and s(grp, label) with one row per group.
func keyedSource(rows int, keyed bool) mapSource {
	r := multiset.New(schema.NewRelation("r",
		schema.Attribute{Name: "id", Type: value.KindInt},
		schema.Attribute{Name: "grp", Type: value.KindInt}))
	for i := 0; i < rows; i++ {
		r.Add(tuple.Ints(int64(i), int64(i%7)), 1+uint64(i%2))
	}
	s := multiset.New(schema.NewRelation("s",
		schema.Attribute{Name: "grp", Type: value.KindInt},
		schema.Attribute{Name: "label", Type: value.KindInt}))
	for g := 0; g < 7; g++ {
		s.Add(tuple.Ints(int64(g), int64(100+g)), 1)
	}
	if keyed {
		r = r.WithKey(0)
	}
	return mapSource{"r": r, "s": s}
}

func eqConst(col int, v int64) scalar.Predicate {
	return scalar.NewCompare(value.CmpEq, scalar.NewAttr(col), scalar.NewConst(value.NewInt(v)))
}

// TestPlannerReadsTheInstanceItScans pins the planner's one source of
// base-relation facts: with a bare source and no adapter, a scan's est= and
// ndv= are the Cardinality and DistinctCount of the instance the source
// returns, and that instance's key column decides the leaf — replacing it
// with r.WithKey(0) turns the next plan's Scan into an IndexScan, and
// WithKey(-1) turns it back, with the same answer every time.
func TestPlannerReadsTheInstanceItScans(t *testing.T) {
	src := keyedSource(300, false) // multiplicities 1 and 2: est= and ndv= differ
	r := src["r"]
	scan := mustPlan(t, algebra.NewRel("r"), src)
	if got, want := scan.String(), fmt.Sprintf("Scan r  (est=%d rows, ndv=%d)", r.Cardinality(), r.DistinctCount()); got != want {
		t.Errorf("scan of a bare source renders %q, want %q", got, want)
	}
	e := algebra.NewSelect(eqConst(0, 42), algebra.NewRel("r"))
	var want *multiset.Relation
	for _, step := range []struct {
		key  int
		leaf string
	}{{-1, "Scan r"}, {0, "IndexScan r [%1 = 42]"}, {-1, "Scan r"}} {
		src["r"] = r.WithKey(step.key)
		p := mustPlan(t, e, src)
		if got := p.Root.Children()[0].Describe(); got != step.leaf {
			t.Errorf("WithKey(%d): leaf %q, want %q\n%s", step.key, got, step.leaf, p)
		}
		got, err := p.Execute(src)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !got.Equal(want) {
			t.Errorf("WithKey(%d): %s, want %s", step.key, got, want)
		}
	}
}

// TestIndexScanPlansAndMatchesScan pins where the planner puts a key lookup
// and that it changes no answer: a selection directly over a keyed relation
// with an equality on the key column, either way round and beside other
// conjuncts, plans an IndexScan under the unchanged Filter at every worker
// count, never below a Partition, and returns the bag the same plan over an
// unkeyed copy returns.  A fallible conjunct ahead of the equality, or an
// equality on another column, keeps the scan.
func TestIndexScanPlansAndMatchesScan(t *testing.T) {
	keyed, plain := keyedSource(3000, true), keyedSource(3000, false)
	constLeft := scalar.NewCompare(value.CmpEq, scalar.NewConst(value.NewInt(42)), scalar.NewAttr(0))
	divides := scalar.NewCompare(value.CmpGe,
		scalar.NewArith(value.OpDiv, scalar.NewAttr(1), scalar.NewConst(value.NewInt(1))), scalar.NewConst(value.NewInt(0)))
	r, s := algebra.NewRel("r"), algebra.NewRel("s")
	cases := []struct {
		name  string
		expr  algebra.Expr
		index string
	}{
		{"attr-left", algebra.NewSelect(eqConst(0, 42), r), "IndexScan r [%1 = 42]"},
		{"const-left", algebra.NewSelect(constLeft, r), "IndexScan r [%1 = 42]"},
		{"residual", algebra.NewSelect(scalar.NewAnd(eqConst(1, 0), eqConst(0, 42), divides), r), "IndexScan r [%1 = 42]"},
		{"absent key", algebra.NewSelect(eqConst(0, 5000), r), "IndexScan r [%1 = 5000]"},
		{"join build", algebra.NewJoin(scalar.Eq(1, 2), algebra.NewSelect(eqConst(0, 43), r), s), "IndexScan r [%1 = 43]"},
		{"fallible first", algebra.NewSelect(scalar.NewAnd(divides, eqConst(0, 42)), r), ""},
		{"other column", algebra.NewSelect(eqConst(1, 3), r), ""},
	}
	for _, c := range cases {
		for _, w := range []int{1, 2, 4} {
			pl := &Planner{Cards: analyze(keyed), Workers: w, ParallelThreshold: 1}
			p, err := pl.Plan(c.expr, catalogOf(keyed))
			if err != nil {
				t.Fatal(err)
			}
			rendered := p.String()
			if got := strings.Contains(rendered, "IndexScan"); got != (c.index != "") || !strings.Contains(rendered, c.index) {
				t.Errorf("%s workers=%d: plan\n%s\nwant %q", c.name, w, rendered, c.index)
			}
			if underPartition(p.Root, false) {
				t.Errorf("%s workers=%d: IndexScan below a Partition:\n%s", c.name, w, rendered)
			}
			got, err := p.Execute(keyed)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := (&Planner{Cards: analyze(plain), Workers: w}).Plan(c.expr, catalogOf(plain))
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Execute(plain)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Errorf("%s workers=%d: key lookup %s, scan %s", c.name, w, got, want)
			}
		}
	}
}

// underPartition reports whether an IndexScan sits anywhere below a
// Partition in the tree rooted at n.
func underPartition(n Node, below bool) bool {
	if _, ok := n.(*indexScanNode); ok && below {
		return true
	}
	_, isPart := n.(*partitionNode)
	for _, c := range n.Children() {
		if underPartition(c, below || isPart) {
			return true
		}
	}
	return false
}

// TestIndexScanFallsBackToScan runs a plan made against a keyed relation on
// an instance with no key chain — what a plan meets when the relation was
// replaced wholesale, or a temporary shadows it — and on one keyed on
// another column: the leaf scans the instance whole and the Filter above
// keeps the answer exact.
func TestIndexScanFallsBackToScan(t *testing.T) {
	keyed, plain := keyedSource(500, true), keyedSource(500, false)
	e := algebra.NewSelect(eqConst(0, 42), algebra.NewRel("r"))
	p := mustPlan(t, e, keyed)
	if !strings.Contains(p.String(), "IndexScan") {
		t.Fatalf("plan over a keyed relation:\n%s", p)
	}
	want, err := p.Execute(keyed)
	if err != nil {
		t.Fatal(err)
	}
	if want.Cardinality() != 1 {
		t.Fatalf("key 42 found %s, want one row", want)
	}
	other := mapSource{"r": plain["r"].WithKey(1), "s": plain["s"]}
	for name, src := range map[string]mapSource{"unkeyed": plain, "keyed on grp": other} {
		got, err := p.Execute(src)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("%s instance: %s, want %s", name, got, want)
		}
	}
}
