package plan

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mra/internal/algebra"
	"mra/internal/multiset"
	"mra/internal/scalar"
	"mra/internal/schema"
	"mra/internal/stats"
	"mra/internal/tuple"
	"mra/internal/value"
)

// analyzedSource is a test double wiring ANALYZE-grade statistics into the
// planner: the relations are the source's, the summaries are built from them.
type analyzedSource struct {
	mapSource
	tables map[string]*stats.Table
}

func analyze(src mapSource) analyzedSource {
	tables := make(map[string]*stats.Table, len(src))
	for name, r := range src {
		tables[name] = stats.Analyze(r, 0)
	}
	return analyzedSource{mapSource: src, tables: tables}
}

func (a analyzedSource) TableStats(name string) (*stats.Table, bool) {
	t, ok := a.tables[name]
	return t, ok
}

// groupedRelation builds rows rows of (i % keyRange, i).
func groupedRelation(name string, rows, keyRange int) *multiset.Relation {
	r := multiset.New(schema.NewRelation(name,
		schema.Attribute{Name: "key", Type: value.KindInt},
		schema.Attribute{Name: "payload", Type: value.KindInt}))
	for i := 0; i < rows; i++ {
		r.Add(tuple.Ints(int64(i%keyRange), int64(i)), 1)
	}
	return r
}

// TestTwoPhaseChoiceFromGroupingNDV pins the E12 phase decision to the
// per-grouping-column NDV of analyzed statistics: low-cardinality and
// moderate (zipf-range) groupings keep the two-phase partial/merge shape,
// while a high-cardinality grouping — where per-worker partial tables would
// approach the input size — stays serial, with no exchange beneath the
// aggregate.  Without statistics the flat groupReduction estimate kept
// high-card groupings two-phase, serialising the merge on ~10000 partial
// groups per worker.
func TestTwoPhaseChoiceFromGroupingNDV(t *testing.T) {
	cases := []struct {
		name     string
		keyRange int
		twoPhase bool
	}{
		{"low-card", 16, true},
		{"zipf-range", 100, true},
		{"high-card", 10000, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := mapSource{"fact": groupedRelation("fact", 20000, tc.keyRange)}
			expr := algebra.NewGroupBy([]int{0}, algebra.AggSum, 1, algebra.NewRel("fact"))
			p, err := (&Planner{Cards: analyze(src), Workers: 4}).Plan(expr, catalogOf(src))
			if err != nil {
				t.Fatal(err)
			}
			rendering := p.String()
			if got := strings.Contains(rendering, "partial"); got != tc.twoPhase {
				t.Errorf("keyRange=%d: two-phase = %v, want %v:\n%s",
					tc.keyRange, got, tc.twoPhase, rendering)
			}
			if merges, parts := countNodes(p); !tc.twoPhase && merges+parts != 0 {
				t.Errorf("keyRange=%d: serial aggregate planned over an exchange:\n%s",
					tc.keyRange, rendering)
			}
			// Either shape computes the exact grouped sums.
			out, err := p.Execute(src)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := int(out.Cardinality()), min(tc.keyRange, 20000); got != want {
				t.Errorf("keyRange=%d: %d groups, want %d", tc.keyRange, got, want)
			}
		})
	}
}

// TestGroupEstimateFromStats checks the group-by output estimate itself: with
// statistics the planner estimates the group count from the grouping-column
// NDV instead of the flat 20% reduction.
func TestGroupEstimateFromStats(t *testing.T) {
	src := mapSource{"fact": groupedRelation("fact", 20000, 50)}
	expr := algebra.NewGroupBy([]int{0}, algebra.AggSum, 1, algebra.NewRel("fact"))
	p, err := (&Planner{Cards: analyze(src)}).Plan(expr, catalogOf(src))
	if err != nil {
		t.Fatal(err)
	}
	est := p.Root.Estimate()
	if est < 40 || est > 60 {
		t.Errorf("group estimate = %v, want ~50 (flat guess would be 4000)", est)
	}
}

// TestConstLeftCompareUsesHistogram checks that a comparison with the
// constant on the left is estimated like its attribute-left twin: the operator
// is mirrored (200 <= %5 is %5 >= 200) before the histogram is consulted.
func TestConstLeftCompareUsesHistogram(t *testing.T) {
	cols := make([]schema.Attribute, 5)
	for i := range cols {
		cols[i] = schema.Attribute{Name: fmt.Sprintf("c%d", i+1), Type: value.KindInt}
	}
	fact := multiset.New(schema.NewRelation("fact", cols...))
	for i := 0; i < 4000; i++ {
		fact.Add(tuple.Ints(int64(i%7), int64(i%11), int64(i%13), int64(i), int64(i%1000)), 1)
	}
	src := mapSource{"fact": fact}
	pl := &Planner{Cards: analyze(src)}
	estimate := func(e algebra.Expr) float64 {
		p, err := pl.Plan(e, catalogOf(src))
		if err != nil {
			t.Fatal(err)
		}
		return p.Root.Estimate()
	}
	c200, attr := scalar.NewConst(value.NewInt(200)), scalar.NewAttr(4)
	for _, op := range []value.CompareOp{value.CmpLe, value.CmpLt, value.CmpGt, value.CmpGe} {
		constLeft := algebra.NewSelect(scalar.NewCompare(op, c200, attr), algebra.NewRel("fact"))
		attrLeft := algebra.NewSelect(scalar.NewCompare(op.Flip(), attr, c200), algebra.NewRel("fact"))
		got, want := estimate(constLeft), estimate(attrLeft)
		if got != want {
			t.Errorf("%s: estimate %v, want the %s estimate %v", constLeft, got, attrLeft, want)
		}
		if flat := float64(fact.Cardinality()) * selectionSelectivity; want == flat {
			t.Errorf("%s: estimate is the flat guess %v, not the histogram's", attrLeft, flat)
		}
	}
}

// TestJoinColumnStatsStayAligned pins the column statistics of a join whose
// operand carries none (a difference) beside an analysed scan: the join's
// statistics hold one entry per output column, the unanalysed operand's
// unknown, so the scan's stay at the scan's columns and a projection above
// the join reads a column of either side without running off the end.
func TestJoinColumnStatsStayAligned(t *testing.T) {
	src := analyze(mapSource{
		"r": groupedRelation("r", 200, 20),
		"s": groupedRelation("s", 100, 5),
	})
	diff := algebra.NewDifference(algebra.NewProject([]int{0}, algebra.NewRel("r")),
		algebra.NewProject([]int{0}, algebra.NewRel("s")))
	// The join is planned in the written order and then permuted back; the
	// statistics must cover the difference's column as unknown.
	e := algebra.NewProject([]int{2, 0}, algebra.NewSelect(scalar.Eq(0, 1),
		algebra.NewProduct(diff, algebra.NewRel("r"))))
	p, err := (&Planner{Cards: src}).Plan(e, catalogOf(src.mapSource))
	if err != nil {
		t.Fatal(err)
	}
	var join Node
	var find func(n Node)
	find = func(n Node) {
		if _, ok := n.(*hashJoinNode); ok && join == nil {
			join = n
		}
		for _, c := range n.Children() {
			find(c)
		}
	}
	find(p.Root)
	if join == nil {
		t.Fatalf("no hash join in\n%s", p)
	}
	cols := join.meta().colStats
	if len(cols) != join.Schema().Arity() {
		t.Fatalf("join has %d column statistics for %d columns:\n%s", len(cols), join.Schema().Arity(), p)
	}
	// The sketches estimate 20 and 200 distinct values to within a few per cent.
	if cols[0].ndv != 0 || math.Abs(cols[1].ndv-20) > 2 || math.Abs(cols[2].ndv-200) > 20 {
		t.Errorf("join column NDVs = %v, %v, %v, want unknown, about 20 and about 200", cols[0].ndv, cols[1].ndv, cols[2].ndv)
	}
	if _, err := p.Execute(src); err != nil {
		t.Fatal(err)
	}
}
