package plan

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mra/internal/algebra"
	"mra/internal/exec"
	"mra/internal/multiset"
	"mra/internal/scalar"
	"mra/internal/schema"
	"mra/internal/testleak"
	"mra/internal/tuple"
	"mra/internal/value"
)

// lifecycleWidths are the gang widths the lifecycle properties are proven at;
// width 1 exercises the serial plan shapes, the rest the exchange runtime.
var lifecycleWidths = []int{1, 2, 4, 8}

// lifecyclePlanner builds a planner that parallelises everything eligible at
// the given width with single-entry morsels, so every scan crosses the morsel
// queue as many times as possible — the densest set of cancellation points.
func lifecyclePlanner(src mapSource, workers int) *Planner {
	return &Planner{Cards: analyze(src), Workers: workers, ParallelThreshold: 1, MorselSize: 1}
}

// gangBoundary names the plan's exchange boundary operator, as wrapGangErr
// would render it.
func gangBoundary(p *Plan) string {
	for _, n := range p.nodes {
		if _, ok := n.(*groupMergeNode); ok {
			return "GroupMerge"
		}
	}
	return "Merge"
}

// cancellingSource is a Source that cancels a context the moment a relation is
// resolved — after planning, before the scan emits — giving serial plans a
// deterministic mid-query cancellation point.
type cancellingSource struct {
	mapSource
	cancel context.CancelFunc
}

func (s cancellingSource) Relation(name string) (*multiset.Relation, bool) {
	s.cancel()
	return s.mapSource.Relation(name)
}

// TestCancelledBeforeExecution checks a plan handed an already-cancelled
// context fails with context.Canceled before any work, at every width.
func TestCancelledBeforeExecution(t *testing.T) {
	defer testleak.Check(t)()
	src := testSource(1000)
	for name, e := range parallelShapes() {
		for _, w := range lifecycleWidths {
			p, err := lifecyclePlanner(src, w).Plan(e, catalogOf(src))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := p.ExecuteStatsContext(ctx, src, nil); !errors.Is(err, context.Canceled) {
				t.Errorf("%s workers=%d: err = %v, want context.Canceled", name, w, err)
			}
		}
	}
}

// TestCancelMidStreamSerial checks the serial path's amortised emit polling:
// the context is cancelled after planning, exactly when the scan resolves its
// relation, and the poll wired into the emit chain must abort the stream.
func TestCancelMidStreamSerial(t *testing.T) {
	defer testleak.Check(t)()
	src := testSource(1000)
	pred := scalar.NewCompare(value.CmpGe, scalar.NewAttr(1), scalar.NewConst(value.NewInt(0)))
	e := algebra.NewProject([]int{0}, algebra.NewSelect(pred, algebra.NewRel("fact")))
	p := mustPlan(t, e, src)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := p.ExecuteStatsContext(ctx, cancellingSource{src, cancel}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCancelAtRandomClaims is the core cancellation property: for every
// parallel shape and gang width, cancelling the query context mid-exchange
// yields context.Canceled promptly, with no deadlock and no leaked goroutine.
// Every gang splits its work by morsels, so every shape cancels at a
// randomised morsel-claim count (MorselSize=1 maximises claim density so the
// random points land throughout the exchange).
func TestCancelAtRandomClaims(t *testing.T) {
	src := testSource(1000)
	rng := rand.New(rand.NewSource(2026))
	for name, e := range parallelShapes() {
		for _, w := range []int{2, 4, 8} {
			p, err := lifecyclePlanner(src, w).Plan(e, catalogOf(src))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			if m, parts := countNodes(p); m == 0 || parts == 0 {
				t.Fatalf("%s workers=%d: no morsel exchange inserted:\n%s", name, w, p)
			}
			check := testleak.Check(t)
			ctx, cancel := context.WithCancel(context.Background())
			var claims atomic.Int64
			// Every shape scans fact (1000 entries) with single-entry morsels,
			// so any target below ~1000 claims is reached before the exchange
			// drains.
			target := int64(1 + rng.Intn(64))
			// The mutex holds later claims until the cancelling one has
			// cancelled; else its goroutine, descheduled in between, can let
			// the siblings drain the queue and the query rightly succeed.
			var mu sync.Mutex
			restore := exec.InjectFaults(&exec.Faults{MorselClaim: func() {
				mu.Lock()
				defer mu.Unlock()
				if claims.Add(1) == target {
					cancel()
				}
			}})
			start := time.Now()
			_, err = p.ExecuteStatsContext(ctx, src, nil)
			elapsed := time.Since(start)
			restore()
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s workers=%d claim=%d: err = %v, want context.Canceled", name, w, target, err)
			}
			if claims.Load() < target {
				t.Errorf("%s workers=%d: exchange drained after %d claims, cancellation target %d never fired", name, w, claims.Load(), target)
			}
			if elapsed > 5*time.Second {
				t.Errorf("%s workers=%d claim=%d: cancellation took %v, want prompt", name, w, target, elapsed)
			}
			check()
		}
	}
}

// TestDeadlineTripsMidExchange checks deadline enforcement inside a running
// exchange: slow morsel claims (injected delay) push the gang past a short
// deadline, and the query must fail with context.DeadlineExceeded long before
// the work would have finished.
func TestDeadlineTripsMidExchange(t *testing.T) {
	defer testleak.Check(t)()
	src := testSource(1000)
	e := algebra.NewGroupBy([]int{0}, algebra.AggSum, 1, algebra.NewRel("fact"))
	p, err := lifecyclePlanner(src, 4).Plan(e, catalogOf(src))
	if err != nil {
		t.Fatal(err)
	}
	// 1000 single-entry claims at 2ms each is ~2s of injected latency even
	// spread over 4 workers; the deadline trips within tens of milliseconds.
	restore := exec.InjectFaults(&exec.Faults{ClaimDelay: 2 * time.Millisecond})
	defer restore()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = p.ExecuteStatsContext(ctx, src, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline enforcement took %v, want prompt", elapsed)
	}
}

// TestInjectedWorkerPanicNamesOperator checks an injected worker panic inside
// a parallel plan surfaces as one coherent error — a *exec.PanicError carrying
// the worker id, prefixed with the exchange operator it crashed under — and
// never as a process crash or a leaked gang.
func TestInjectedWorkerPanicNamesOperator(t *testing.T) {
	src := testSource(1000)
	pred := scalar.NewCompare(value.CmpGe, scalar.NewAttr(1), scalar.NewConst(value.NewInt(50)))
	shapes := map[string]algebra.Expr{
		"merge":       algebra.NewSelect(pred, algebra.NewRel("fact")),
		"group-merge": algebra.NewGroupBy([]int{0}, algebra.AggSum, 1, algebra.NewRel("fact")),
	}
	for name, e := range shapes {
		for _, w := range []int{2, 4, 8} {
			check := testleak.Check(t)
			p, err := lifecyclePlanner(src, w).Plan(e, catalogOf(src))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			// The gang boundary is a GroupMerge for the two-phase aggregate
			// and a Merge otherwise; the surfaced error must name whichever
			// the plan actually has.
			op := gangBoundary(p)
			victim := w - 1
			restore := exec.InjectFaults(&exec.Faults{WorkerStart: func(worker int) {
				if worker == victim {
					panic("injected worker crash")
				}
			}})
			_, err = p.Execute(src)
			restore()
			var pe *exec.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("%s workers=%d: err = %v, want *exec.PanicError", name, w, err)
			}
			if pe.Worker != victim {
				t.Errorf("%s workers=%d: panic attributed to worker %d, want %d", name, w, pe.Worker, victim)
			}
			if !strings.Contains(err.Error(), op) {
				t.Errorf("%s workers=%d: error %q does not name the %s operator", name, w, err, op)
			}
			check()
		}
	}
}

// TestMemoryBudgetTrips checks every charging site fails deterministically
// with ErrMemoryBudget under a tiny budget — hash-join builds, group tables,
// Unique's seen set, nested-loop materialisations — serial and parallel (the
// gauge is shared across the gang), and that a generous budget changes
// nothing.
func TestMemoryBudgetTrips(t *testing.T) {
	defer testleak.Check(t)()
	src := testSource(1000)
	pred := scalar.NewCompare(value.CmpLt, scalar.NewAttr(1), scalar.NewAttr(3))
	shapes := map[string]algebra.Expr{
		"hash-join-build": algebra.NewJoin(scalar.Eq(0, 2), algebra.NewRel("fact"), algebra.NewRel("dim")),
		"group-table":     algebra.NewGroupBy([]int{0}, algebra.AggSum, 1, algebra.NewRel("fact")),
		"unique-seen":     algebra.NewUnique(algebra.NewRel("fact")),
		"nested-loop":     algebra.NewJoin(pred, algebra.NewRel("fact"), algebra.NewRel("dim")),
		"difference":      algebra.NewDifference(algebra.NewRel("fact"), algebra.NewRel("fact")),
		"intersect":       algebra.NewIntersect(algebra.NewRel("fact"), algebra.NewRel("fact")),
	}
	for name, e := range shapes {
		for _, w := range lifecycleWidths {
			pl := lifecyclePlanner(src, w)
			pl.MemoryLimit = 1024
			p, err := pl.Plan(e, catalogOf(src))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			if _, err := p.Execute(src); !errors.Is(err, ErrMemoryBudget) {
				t.Errorf("%s workers=%d limit=1KiB: err = %v, want ErrMemoryBudget", name, w, err)
			}
			// A generous budget must not change the result.
			pl.MemoryLimit = 1 << 30
			p, err = pl.Plan(e, catalogOf(src))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			got, err := p.Execute(src)
			if err != nil {
				t.Fatalf("%s workers=%d limit=1GiB: %v", name, w, err)
			}
			want, err := mustPlan(t, e, src).Execute(src)
			if err != nil {
				t.Fatalf("%s reference: %v", name, err)
			}
			if !got.Equal(want) {
				t.Errorf("%s workers=%d: result differs under a generous budget", name, w)
			}
		}
	}
}

// TestMemoryBudgetTripsSort checks the Sort materialisation charges the gauge:
// an ordered plan over a tiny budget fails with ErrMemoryBudget, and a
// generous one succeeds.
func TestMemoryBudgetTripsSort(t *testing.T) {
	defer testleak.Check(t)()
	src := testSource(1000)
	e := algebra.NewRel("fact")
	clause := Clause{Order: []SortKey{{Col: 1, Desc: true}}}
	pl := &Planner{Cards: src, MemoryLimit: 1024}
	p, err := pl.PlanOrdered(e, catalogOf(src), clause)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(src); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("limit=1KiB: err = %v, want ErrMemoryBudget", err)
	}
	pl.MemoryLimit = 1 << 30
	p, err = pl.PlanOrdered(e, catalogOf(src), clause)
	if err != nil {
		t.Fatal(err)
	}
	_, runs, err := p.ExecuteRuns(context.Background(), src, nil)
	if err != nil {
		t.Fatalf("limit=1GiB: %v", err)
	}
	if rows := len(expandRuns(runs)); rows != 1000 {
		t.Fatalf("ordered rows = %d, want 1000", rows)
	}
}

// TestCancelledOrderedExecution checks the Sort path honours cancellation: a
// pre-cancelled ordered execution fails with context.Canceled at every width.
func TestCancelledOrderedExecution(t *testing.T) {
	defer testleak.Check(t)()
	src := testSource(1000)
	for _, w := range lifecycleWidths {
		pl := lifecyclePlanner(src, w)
		p, err := pl.PlanOrdered(algebra.NewRel("fact"), catalogOf(src), Clause{Order: []SortKey{{Col: 0}}})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, _, err := p.ExecuteRuns(ctx, src, nil); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", w, err)
		}
	}
}

// TestMemoryGaugeAccounting pins the gauge arithmetic: concurrent growth
// trips exactly past the limit, Release returns budget, and the nil gauge is
// inert.
func TestMemoryGaugeAccounting(t *testing.T) {
	g := NewMemoryGauge(100)
	if err := g.Grow(60); err != nil {
		t.Fatalf("first grow: %v", err)
	}
	if err := g.Grow(60); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("over-limit grow: err = %v, want ErrMemoryBudget", err)
	}
	g.Release(60)
	if err := g.Grow(40); err != nil {
		t.Fatalf("grow after release: %v", err)
	}
	if got := g.Used(); got != 100 {
		t.Errorf("Used = %d, want 100", got)
	}
	if got := g.Limit(); got != 100 {
		t.Errorf("Limit = %d, want 100", got)
	}
	var nilGauge *MemoryGauge
	if err := nilGauge.Grow(1 << 40); err != nil {
		t.Errorf("nil gauge Grow: %v", err)
	}
	nilGauge.Release(1)
	if nilGauge.Used() != 0 || nilGauge.Limit() != 0 {
		t.Errorf("nil gauge reports usage")
	}
}

// chainSource holds edge(src, dst) = the chain 0 → 1 → … → n: its closure
// has n(n+1)/2 pairs and takes n semi-naive rounds.
func chainSource(n int) mapSource {
	edge := multiset.New(schema.NewRelation("edge",
		schema.Attribute{Name: "src", Type: value.KindInt},
		schema.Attribute{Name: "dst", Type: value.KindInt}))
	for i := 0; i < n; i++ {
		edge.Add(tuple.Ints(int64(i), int64(i+1)), 1)
	}
	return mapSource{"edge": edge}
}

// TestClosureHonoursDeadline checks the closure fixpoint polls the query
// context: on a 1000-edge chain (500,500 pairs, 1000 rounds) a 20 ms
// deadline ends the query in context.DeadlineExceeded instead of running
// the fixpoint to the end and succeeding.
func TestClosureHonoursDeadline(t *testing.T) {
	defer testleak.Check(t)()
	src := chainSource(1000)
	e := algebra.NewTClose(algebra.NewRel("edge"))
	for _, w := range lifecycleWidths {
		p, err := lifecyclePlanner(src, w).Plan(e, catalogOf(src))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		start := time.Now()
		_, err = p.ExecuteStatsContext(ctx, src, nil)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("workers=%d: err = %v, want context.DeadlineExceeded", w, err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("workers=%d: deadline enforcement took %v, want prompt", w, elapsed)
		}
	}
}

// TestClosureHonoursBudget checks the closure fixpoint charges the pairs it
// derives: the 1000-edge chain's input fits a 1 MiB budget, its 500,500-pair
// closure does not, so the query fails with ErrMemoryBudget instead of
// returning every row; a budget the closure fits changes nothing.
func TestClosureHonoursBudget(t *testing.T) {
	defer testleak.Check(t)()
	e := algebra.NewTClose(algebra.NewRel("edge"))
	for _, w := range lifecycleWidths {
		src := chainSource(1000)
		pl := lifecyclePlanner(src, w)
		pl.MemoryLimit = 1 << 20
		p, err := pl.Plan(e, catalogOf(src))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Execute(src); !errors.Is(err, ErrMemoryBudget) {
			t.Fatalf("workers=%d limit=1MiB: err = %v, want ErrMemoryBudget", w, err)
		}
		small := chainSource(50)
		pl = lifecyclePlanner(small, w)
		pl.MemoryLimit = 1 << 20
		p, err = pl.Plan(e, catalogOf(small))
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Execute(small)
		if err != nil {
			t.Fatalf("workers=%d: a 1275-pair closure within 1 MiB: %v", w, err)
		}
		if got.Cardinality() != 50*51/2 {
			t.Errorf("workers=%d: closure of a 50-edge chain has %d pairs, want %d", w, got.Cardinality(), 50*51/2)
		}
	}
}
