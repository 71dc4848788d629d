package plan

import (
	"context"
	"errors"
	"strings"
	"testing"

	"mra/internal/algebra"
	"mra/internal/multiset"
	"mra/internal/scalar"
	"mra/internal/schema"
	"mra/internal/tuple"
	"mra/internal/value"
)

// parallelPlanner builds a planner of the given width that parallelises
// everything eligible, regardless of input size.  It plans over analysed
// statistics, so grouped aggregates see their grouping-column NDV and the
// two-phase shape pays at every tested width.
func parallelPlanner(src mapSource, workers int) *Planner {
	return &Planner{Cards: analyze(src), Workers: workers, ParallelThreshold: 1}
}

// countNodes counts plan nodes of the exchange kinds; GroupMerge is the gang
// boundary of two-phase aggregates and counts as a merge.
func countNodes(p *Plan) (merges, partitions int) {
	for _, n := range p.nodes {
		switch n.(type) {
		case *mergeNode, *groupMergeNode:
			merges++
		case *partitionNode:
			partitions++
		}
	}
	return
}

// parallelShapes are the operator shapes the planner parallelises, over the
// fact/dim test source.
func parallelShapes() map[string]algebra.Expr {
	pred := scalar.NewCompare(value.CmpGe, scalar.NewAttr(1), scalar.NewConst(value.NewInt(50)))
	return map[string]algebra.Expr{
		"pipeline": algebra.NewProject([]int{0}, algebra.NewSelect(pred, algebra.NewRel("fact"))),
		"union-pipeline": algebra.NewSelect(pred,
			algebra.NewUnion(algebra.NewRel("fact"), algebra.NewRel("fact"))),
		"hash-join": algebra.NewJoin(scalar.Eq(0, 2), algebra.NewRel("fact"), algebra.NewRel("dim")),
		"join-residual": algebra.NewJoin(
			scalar.NewAnd(scalar.Eq(0, 2), scalar.NewCompare(value.CmpLt, scalar.NewAttr(1), scalar.NewAttr(3))),
			algebra.NewRel("fact"), algebra.NewRel("dim")),
		"join-over-pipeline": algebra.NewJoin(scalar.Eq(0, 2),
			algebra.NewSelect(pred, algebra.NewRel("fact")), algebra.NewRel("dim")),
		"hash-agg": algebra.NewGroupBy([]int{0}, algebra.AggSum, 1, algebra.NewRel("fact")),
		"agg-over-pipeline": algebra.NewGroupBy([]int{0}, algebra.AggMax, 1,
			algebra.NewSelect(pred, algebra.NewRel("fact"))),
		"multi-agg": algebra.NewGroupByMulti([]int{0}, []algebra.AggSpec{
			{Fn: algebra.AggCount, Col: 0}, {Fn: algebra.AggSum, Col: 1}, {Fn: algebra.AggMax, Col: 1},
		}, algebra.NewRel("fact")),
		"global-agg": algebra.NewGroupBy(nil, algebra.AggSum, 1, algebra.NewRel("fact")),
		"global-multi-agg-pipeline": algebra.NewGroupByMulti(nil, []algebra.AggSpec{
			{Fn: algebra.AggCount, Col: 0}, {Fn: algebra.AggMin, Col: 1}, {Fn: algebra.AggAvg, Col: 1},
		}, algebra.NewSelect(pred, algebra.NewRel("fact"))),
		"difference": algebra.NewDifference(algebra.NewRel("fact"),
			algebra.NewSelect(pred, algebra.NewRel("fact"))),
		"intersect": algebra.NewIntersect(algebra.NewRel("fact"),
			algebra.NewSelect(pred, algebra.NewRel("fact"))),
	}
}

// TestParallelMatchesSerial is the core exchange property: for every
// parallelised shape and several gang widths, the parallel plan produces
// exactly the serial multi-set, multiplicities included.
func TestParallelMatchesSerial(t *testing.T) {
	src := testSource(1000)
	for name, e := range parallelShapes() {
		serial, err := mustPlan(t, e, src).Execute(src)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		for _, w := range []int{2, 4, 8} {
			p, err := parallelPlanner(src, w).Plan(e, catalogOf(src))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			merges, _ := countNodes(p)
			if merges == 0 {
				t.Fatalf("%s workers=%d: no exchange inserted:\n%s", name, w, p)
			}
			par, err := p.Execute(src)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			if !par.Equal(serial) {
				t.Errorf("%s workers=%d: parallel result differs\nserial:   %s\nparallel: %s",
					name, w, serial, par)
			}
		}
	}
}

// TestMorselSchedulingMatchesSerial sweeps tiny morsel and batch sizes —
// forcing many steal rounds and many batch boundaries on small inputs — and
// checks every parallel shape still produces exactly the serial multi-set.
func TestMorselSchedulingMatchesSerial(t *testing.T) {
	src := testSource(1000)
	for name, e := range parallelShapes() {
		serial, err := mustPlan(t, e, src).Execute(src)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		for _, w := range []int{2, 8} {
			for _, cfg := range []struct{ morsel, batch int }{
				{1, 1}, {3, 2}, {16, 4}, {1, 1024}, {4096, 1},
			} {
				pp := parallelPlanner(src, w)
				pp.MorselSize, pp.BatchSize = cfg.morsel, cfg.batch
				p, err := pp.Plan(e, catalogOf(src))
				if err != nil {
					t.Fatalf("%s w=%d morsel=%d batch=%d: %v", name, w, cfg.morsel, cfg.batch, err)
				}
				par, err := p.Execute(src)
				if err != nil {
					t.Fatalf("%s w=%d morsel=%d batch=%d: %v", name, w, cfg.morsel, cfg.batch, err)
				}
				if !par.Equal(serial) {
					t.Errorf("%s w=%d morsel=%d batch=%d: result differs\nserial:   %s\nparallel: %s",
						name, w, cfg.morsel, cfg.batch, serial, par)
				}
			}
		}
	}
}

// TestParallelSetOperatorExchanges pins the plan shape around a Difference
// at several widths: the set operator itself stays serial — it builds S into
// one counted table and streams R past it, and a probe shared by a gang
// would have to decrement the counts across workers — while an operand with
// per-tuple work runs as a morsel-parallel pipeline under its own Merge, and
// a bare scan operand stays a bare scan.  The executed results match serial.
func TestParallelSetOperatorExchanges(t *testing.T) {
	src := testSource(1000)
	pred := scalar.NewCompare(value.CmpGe, scalar.NewAttr(1), scalar.NewConst(value.NewInt(100)))
	diff := algebra.NewDifference(algebra.NewRel("fact"),
		algebra.NewSelect(pred, algebra.NewRel("fact")))
	projDiff := algebra.NewDifference(
		algebra.NewProject([]int{0}, algebra.NewRel("fact")),
		algebra.NewProject([]int{0}, algebra.NewRel("fact")))
	for _, tc := range []struct {
		name            string
		e               algebra.Expr
		merges, morsels int
		wantLines       []string
	}{
		{"filtered operand", diff, 1, 1, []string{
			"Difference  (est~1000 rows)",
			"├─ Scan fact  (est=1000 rows)",
			"└─ Merge [workers=4]  (est~899 rows)",
			"   └─ Filter [%2 >= 100]  (est~899 rows)",
			"      └─ Partition [morsel size=64]  (est=1000 rows)",
			"         └─ Scan fact  (est=1000 rows)",
		}},
		{"projected operands", projDiff, 2, 2, nil},
	} {
		p, err := parallelPlanner(src, 4).Plan(tc.e, catalogOf(src))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := p.Root.(*differenceNode); !ok {
			t.Errorf("%s: the difference must stay serial at the root:\n%s", tc.name, p)
		}
		if merges, parts := countNodes(p); merges != tc.merges || parts != tc.morsels {
			t.Errorf("%s: %d merges, %d partitions, want %d and %d:\n%s",
				tc.name, merges, parts, tc.merges, tc.morsels, p)
		}
		if tc.wantLines != nil {
			if got, want := p.String(), strings.Join(tc.wantLines, "\n"); got != want {
				t.Errorf("%s rendering:\n%s\nwant:\n%s", tc.name, got, want)
			}
		}
		serial, err := mustPlan(t, tc.e, src).Execute(src)
		if err != nil {
			t.Fatal(err)
		}
		par, err := p.Execute(src)
		if err != nil {
			t.Fatal(err)
		}
		if !par.Equal(serial) {
			t.Errorf("%s: parallel plan differs\nserial:   %s\nparallel: %s", tc.name, serial, par)
		}
	}
}

// TestParallelThreshold checks exchange insertion is gated on the estimated
// input cardinality and on the worker count.
func TestParallelThreshold(t *testing.T) {
	src := testSource(1000) // 1100 input tuples across fact and dim
	join := algebra.NewJoin(scalar.Eq(0, 2), algebra.NewRel("fact"), algebra.NewRel("dim"))

	// Serial planner: never.
	p := mustPlan(t, join, src)
	if m, pt := countNodes(p); m+pt != 0 {
		t.Errorf("serial planner inserted exchanges:\n%s", p)
	}

	// Parallel planner with the default threshold: 1100 tuples exceed it.
	pp := &Planner{Cards: src, Workers: 4}
	p2, err := pp.Plan(join, catalogOf(src))
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := countNodes(p2); m != 1 {
		t.Errorf("default threshold must parallelise a 1100-tuple join:\n%s", p2)
	}

	// Small inputs stay serial even with workers configured.
	small := testSource(100)
	p3, err := (&Planner{Cards: small, Workers: 4}).Plan(join, catalogOf(small))
	if err != nil {
		t.Fatal(err)
	}
	if m, pt := countNodes(p3); m+pt != 0 {
		t.Errorf("110 tuples are below the threshold, exchanges inserted:\n%s", p3)
	}

	// A Partition sits only above a Scan: a pipeline over a literal stays
	// serial whatever the threshold.
	rows := make([][]value.Value, 2000)
	for i := range rows {
		rows[i] = []value.Value{value.NewInt(int64(i))}
	}
	lit := algebra.Literal{Rel: schema.Anonymous(schema.Attribute{Type: value.KindInt}), Rows: rows}
	pred := scalar.NewCompare(value.CmpGe, scalar.NewAttr(0), scalar.NewConst(value.NewInt(7)))
	p4, err := parallelPlanner(src, 4).Plan(algebra.NewSelect(pred, lit), catalogOf(src))
	if err != nil {
		t.Fatal(err)
	}
	if m, pt := countNodes(p4); m+pt != 0 {
		t.Errorf("a pipeline over a literal was partitioned:\n%s", p4)
	}
}

// TestParallelPlanRendering pins the explain rendering of a parallel join:
// Merge above the shared-build join, with a morsel Partition above the
// probe-side scan and the build side left bare (it is built once by the
// exchange, not per worker).
func TestParallelPlanRendering(t *testing.T) {
	src := testSource(1000)
	join := algebra.NewJoin(scalar.Eq(0, 2), algebra.NewRel("fact"), algebra.NewRel("dim"))
	p, err := (&Planner{Cards: src, Workers: 4}).Plan(join, catalogOf(src))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"Merge [workers=4]  (est~10000 rows)",
		"└─ HashJoin [%1 = %3] build=right shared  (est~10000 rows)",
		"   ├─ Partition [morsel size=64]  (est=1000 rows)",
		"   │  └─ Scan fact  (est=1000 rows)",
		"   └─ Scan dim  (est=100 rows)",
	}, "\n")
	if got := p.String(); got != want {
		t.Errorf("parallel plan rendering:\n%s\nwant:\n%s", got, want)
	}
}

// TestParallelStatsFolding checks the per-worker statistics are folded into
// the parent: logical emission totals match the serial execution (every tuple
// is processed by exactly one worker), and the merge accounts its partials.
func TestParallelStatsFolding(t *testing.T) {
	src := testSource(1000)
	pred := scalar.NewCompare(value.CmpGe, scalar.NewAttr(1), scalar.NewConst(value.NewInt(500)))
	e := algebra.NewSelect(pred, algebra.NewRel("fact"))

	var serial Stats
	sout, err := mustPlan(t, e, src).ExecuteStatsContext(context.Background(), src, &serial)
	if err != nil {
		t.Fatal(err)
	}

	p, err := parallelPlanner(src, 4).Plan(e, catalogOf(src))
	if err != nil {
		t.Fatal(err)
	}
	var par Stats
	pout, err := p.ExecuteStatsContext(context.Background(), src, &par)
	if err != nil {
		t.Fatal(err)
	}
	if !pout.Equal(sout) {
		t.Fatalf("results differ")
	}
	// The filter's total emissions across workers equal the serial emissions.
	var filterEmitted uint64
	for _, op := range par.PerOperator {
		if strings.HasPrefix(op.Operator, "Filter") {
			filterEmitted += op.Emitted
		}
	}
	if filterEmitted != sout.Cardinality() {
		t.Errorf("filter emitted %d across workers, want %d", filterEmitted, sout.Cardinality())
	}
	if serial.IntermediateTuples != sout.Cardinality() {
		t.Errorf("serial intermediate = %d", serial.IntermediateTuples)
	}
	// The merge holds the partials (the parallel region's materialised state).
	if par.MaterialisedTuples != sout.Cardinality() {
		t.Errorf("merge materialised %d, want the output cardinality %d", par.MaterialisedTuples, sout.Cardinality())
	}
}

// TestParallelErrorPropagation checks a runtime error inside one worker's
// slice aborts the parallel execution, like its serial counterpart.
func TestParallelErrorPropagation(t *testing.T) {
	src := testSource(1000)
	// %2 / %1 divides by zero for the fact tuples with key 0.
	div := algebra.NewExtProject(
		[]scalar.Expr{scalar.NewArith(value.OpDiv, scalar.NewAttr(1), scalar.NewAttr(0))}, nil,
		algebra.NewRel("fact"))
	if _, err := mustPlan(t, div, src).Execute(src); !errors.Is(err, value.ErrDivideByZero) {
		t.Fatalf("serial err = %v", err)
	}
	p, err := parallelPlanner(src, 4).Plan(div, catalogOf(src))
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := countNodes(p); m == 0 {
		t.Fatalf("expected a parallel plan:\n%s", p)
	}
	if _, err := p.Execute(src); !errors.Is(err, value.ErrDivideByZero) {
		t.Errorf("parallel err = %v, want ErrDivideByZero", err)
	}
}

// TestParallelBlockingConsumers checks a Merge under a blocking operator
// (here the difference's build side) streams its summed partials correctly
// into the consumer's state.
func TestParallelBlockingConsumers(t *testing.T) {
	src := testSource(1000)
	pred := scalar.NewCompare(value.CmpGe, scalar.NewAttr(1), scalar.NewConst(value.NewInt(100)))
	filtered := algebra.NewSelect(pred, algebra.NewRel("fact"))
	diff := algebra.NewDifference(algebra.NewRel("fact"), filtered)

	serial, err := mustPlan(t, diff, src).Execute(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := parallelPlanner(src, 4).Plan(diff, catalogOf(src))
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := countNodes(p); m == 0 {
		t.Fatalf("the filtered operand must run parallel:\n%s", p)
	}
	par, err := p.Execute(src)
	if err != nil {
		t.Fatal(err)
	}
	if !par.Equal(serial) {
		t.Errorf("difference over a parallel operand differs\nserial:   %s\nparallel: %s", serial, par)
	}
}

// groupMerges counts the two-phase aggregate exchanges (GroupMerge gang
// boundaries) of a plan.
func groupMerges(p *Plan) int {
	n := 0
	for _, node := range p.nodes {
		if _, ok := node.(*groupMergeNode); ok {
			n++
		}
	}
	return n
}

// TestAggregatePhaseChoice pins the cost-based choice for a parallel
// aggregate: low-cardinality grouping (strong pre-aggregation reduction) goes
// two-phase, grouping on every input column (groups = distinct tuples, no
// reduction) stays serial with no exchange beneath it — its plan is the
// workers-1 plan — and global aggregates are always two-phase.
func TestAggregatePhaseChoice(t *testing.T) {
	src := testSource(1000)
	lowCard := algebra.NewGroupBy([]int{0}, algebra.AggSum, 1, algebra.NewRel("fact"))
	allCols := algebra.NewGroupBy([]int{0, 1}, algebra.AggCount, 0, algebra.NewRel("fact"))
	global := algebra.NewGroupBy(nil, algebra.AggSum, 1, algebra.NewRel("fact"))

	planAt := func(e algebra.Expr, workers int) *Plan {
		p, err := parallelPlanner(src, workers).Plan(e, catalogOf(src))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	plan := func(e algebra.Expr) *Plan { return planAt(e, 4) }

	if two := groupMerges(plan(lowCard)); two != 1 {
		t.Errorf("low-cardinality grouping: %d GroupMerges, want two-phase", two)
	}
	if p := plan(allCols); p.String() != planAt(allCols, 1).String() {
		t.Errorf("grouping on all columns must keep the serial plan:\n%s", p)
	}
	if two := groupMerges(plan(global)); two != 1 {
		t.Errorf("global aggregate must be two-phase, got %d", two)
	}

	// Every choice computes the serial result.
	for _, e := range []algebra.Expr{lowCard, allCols, global} {
		serial, err := mustPlan(t, e, src).Execute(src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := plan(e).Execute(src)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(serial) {
			t.Errorf("parallel aggregate differs from serial:\n%s", plan(e))
		}
	}
}

// TestGroupMergeStats checks the statistics contract of the two-phase
// exchange: each worker's partial groups are charged to the aggregate
// operator, the merged global groups to the GroupMerge, and per-worker
// operator executions fold into the parent's counters.
func TestGroupMergeStats(t *testing.T) {
	src := testSource(1000)
	e := algebra.NewGroupBy([]int{0}, algebra.AggSum, 1, algebra.NewRel("fact"))
	p, err := parallelPlanner(src, 4).Plan(e, catalogOf(src))
	if err != nil {
		t.Fatal(err)
	}
	if groupMerges(p) != 1 {
		t.Fatalf("expected a two-phase plan:\n%s", p)
	}
	var st Stats
	out, err := p.ExecuteStatsContext(context.Background(), src, &st)
	if err != nil {
		t.Fatal(err)
	}
	groups := out.Cardinality()
	if groups != 100 {
		t.Fatalf("groups = %d, want 100", groups)
	}
	// The GroupMerge holds the merged global table; the per-worker partial
	// tables hold at least one entry per group overall (a group may appear in
	// up to four workers' partials).
	var mergeHeld, aggHeld uint64
	for _, op := range st.PerOperator {
		switch {
		case strings.HasPrefix(op.Operator, "GroupMerge"):
			mergeHeld = op.Materialised
		case strings.HasPrefix(op.Operator, "HashAggregate"):
			aggHeld = op.Materialised
		}
	}
	if mergeHeld != groups {
		t.Errorf("GroupMerge materialised = %d, want %d", mergeHeld, groups)
	}
	if aggHeld < groups || aggHeld > 4*groups {
		t.Errorf("partial groups = %d, want within [%d, %d]", aggHeld, groups, 4*groups)
	}
}

// TestFloatAggregateStaysExact pins the float-exactness rule of the parallel
// aggregate: float addition is not associative, but the compensated (Neumaier)
// partial sums keep every re-association exact for these inputs, so SUM/AVG
// over a float attribute now plans two-phase like every other aggregate and
// must still equal the serial result bit for bit.  The
// catastrophic-cancellation values below make any uncompensated re-associated
// summation visibly wrong, not just off by ULPs — the 1e16/-1e16 pair lands in
// different workers' partials, and only the carried compensation term brings
// the small addends back at merge time.
func TestFloatAggregateStaysExact(t *testing.T) {
	s := schema.NewRelation("f",
		schema.Attribute{Name: "g", Type: value.KindInt},
		schema.Attribute{Name: "v", Type: value.KindFloat})
	rel := multiset.New(s)
	rel.Add(tuple.New(value.NewInt(0), value.NewFloat(1e16)), 1)
	for i := 0; i < 64; i++ {
		rel.Add(tuple.New(value.NewInt(int64(i%2)), value.NewFloat(float64(i)+0.3)), 1)
	}
	rel.Add(tuple.New(value.NewInt(0), value.NewFloat(-1e16)), 1)
	src := mapSource{"f": rel}

	grouped := algebra.NewGroupBy([]int{0}, algebra.AggSum, 1, algebra.NewRel("f"))
	global := algebra.NewGroupByMulti(nil, []algebra.AggSpec{
		{Fn: algebra.AggSum, Col: 1}, {Fn: algebra.AggAvg, Col: 1},
	}, algebra.NewRel("f"))
	exactShapes := algebra.NewGroupByMulti([]int{0}, []algebra.AggSpec{
		{Fn: algebra.AggCount, Col: 0}, {Fn: algebra.AggMin, Col: 1}, {Fn: algebra.AggMax, Col: 1},
	}, algebra.NewRel("f"))

	for i, e := range []algebra.Expr{grouped, global, exactShapes} {
		// The global float aggregate always plans two-phase; grouped shapes
		// stay a cost-model choice (serial wins when groups×workers rivals
		// the input), so only the global plan's shape is pinned.
		globalFloatSum := i == 1
		serial, err := mustPlan(t, e, src).Execute(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4, 8} {
			pp := parallelPlanner(src, w)
			pp.MorselSize = 1
			p, err := pp.Plan(e, catalogOf(src))
			if err != nil {
				t.Fatal(err)
			}
			if groupMerges(p) == 0 && globalFloatSum {
				t.Fatalf("compensated float SUM/AVG should plan two-phase:\n%s", p)
			}
			for round := 0; round < 5; round++ {
				par, err := p.Execute(src)
				if err != nil {
					t.Fatal(err)
				}
				if !par.Equal(serial) {
					t.Fatalf("workers=%d round=%d: float aggregate diverged from serial\nserial:   %s\nparallel: %s",
						w, round, serial, par)
				}
			}
		}
	}
	// CNT/MIN/MAX over floats merge exactly and keep the two-phase shape.
	p, err := parallelPlanner(src, 4).Plan(exactShapes, catalogOf(src))
	if err != nil {
		t.Fatal(err)
	}
	if groupMerges(p) != 1 {
		t.Fatalf("CNT/MIN/MAX over floats should stay two-phase:\n%s", p)
	}
}
