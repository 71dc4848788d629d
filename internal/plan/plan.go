// Package plan implements the physical layer of the multi-set extended
// relational algebra: a planner that compiles logical expressions (package
// algebra) into trees of physical operators, and a streaming executor that
// runs those trees against a relation source.
//
// The split mirrors the paper's own separation of concerns: Section 3 defines
// the logical algebra and proves the equivalences (Theorems 3.1–3.3) that
// make plans interchangeable; choosing *which* equivalent plan to run — hash
// join vs. nested loops, build side, operator pipelining — is a physical
// decision and lives here, fed by the same cardinality-based cost model the
// rewriter uses (cost.go).
//
// # Stream contract
//
// Physical operators are push-based streams with one protocol: an operator's
// run method calls its EmitBatch once per output Batch (batch.go), serial or
// parallel, whatever the operator.  A batch holds chunks (t, n) — tuple t
// occurs n (> 0) more times — and the stream as a whole denotes the
// multi-set that sums the live chunks of all its batches.  The SAME tuple MAY
// appear in several chunks (for example from a union whose operands share a
// tuple, or a projection that collapses distinct inputs), and consumers must
// add multiplicities rather than assume distinctness.  Chunk order is
// unspecified — relations are unordered — except at the root of an ordered
// plan, whose Sort emits in key order.  Every operator is pointwise on
// multiplicities, so how a stream is cut into batches never changes what it
// denotes.
//
// A Batch is columnar with a selection vector: physical rows carry
// multiplicities (Counts) and attribute values readable row-major (Tuples) or
// column-major (Cols, one value.Vec per attribute), under a Sel vector
// listing the live physical rows — filters refine Sel instead of compacting,
// projections share column slices, the hash join writes its matches into its
// own reused column vectors, and the hot loops (filter kernels, join probe,
// aggregate update — vec.go) run column-at-a-time over live rows only.  Dead
// rows are never read or evaluated.
//
// Batch.TupleAt is the materialisation boundary where a columnar row becomes
// a tuple, and it is crossed only where a sink keeps a new distinct row —
// the collecting relation (multiset.Relation.AddColumns) or a new entry of
// the one hash table (hashtable.go: Unique's seen-set, an aggregate group,
// the build side of ∸ and ∩, a closure pair) — or where a row-wise consumer
// needs one: a join
// build, the nested loop, Sort, and a predicate the filter kernels cannot
// express.  The hashing sinks hash and compare a row straight off its column
// vectors and build its tuple only when the row is new, so a bag of many
// rows and few distinct tuples costs one tuple per distinct tuple.
// Operators that want tuples read their input chunk by chunk through
// Batch.forEach and emit through a batchWriter; materialised relations
// (scans, their morsels, gang partials) stream out through emitRelation.  A
// batch is only valid for the duration of the EmitBatch call — producers
// reuse its backing slices and vectors — while the tuples and values inside
// it may be retained.
//
// Ownership: emitted tuples are immutable and may be retained by the
// consumer; they are often shared with the source relations.  Schema
// propagation happens entirely at plan time: every node carries its output
// schema, and operator typing (predicates, projections, aggregates) is
// validated during compilation, so execution never re-checks shapes.  Errors
// returned by emit abort the stream immediately and propagate out of
// Execute; operators must not swallow them.
//
// Pipelining falls out of the model: a chain of streaming operators
// (Filter, Project, ExtProject, Union, the probe side of a HashJoin, of a
// Difference and of an Intersect, the outer side of a NestedLoopJoin,
// Unique's output) processes one batch at a time and never materialises an
// intermediate relation.  Blocking operators and sides (the build side of a
// HashJoin, a Difference and an Intersect, HashAggregate, TClose,
// NestedLoopJoin's inner side) hold exactly the state their algorithm
// requires, which Stats reports as MaterialisedTuples.
//
// # Parallel execution
//
// When the planner runs with Workers > 1 it inserts exchange operators
// (exchange.go) around eligible shapes: a Merge node runs its subtree once
// per worker on the runtime of package exec, and Partition nodes inside that
// subtree split the inputs so each worker sees a disjoint slice.  The only
// split is the morsel: workers steal fixed-size entry ranges of a scan from a
// shared queue, so a skewed slice never serialises the gang.  A Partition
// sits only directly above a Scan.  Operators that
// would need a key-consistent split (a one-phase grouped aggregate) or a
// build the probe workers write (∸, ∩) stay serial.  Grouped and global
// aggregates run two-phase under a GroupMerge when pre-aggregation pays.
// Parallel hash joins build their table once, in the parent, before the
// probe gang starts, and share it read-only across the gang's probe workers.
// Bag semantics make every split exact: multiplicities sum across disjoint
// partitions, so the merged partials equal the serial result.
//
// The stream contract is per worker under parallel execution: within one
// worker the rules above hold unchanged, and an emit function is never called
// concurrently — each worker's batches flow into a private partial relation
// that the Merge then streams to its consumer, which sums multiplicities as
// every consumer does.  Operators therefore need no locks, and
// must not share mutable state across workers; anything per-execution lives
// in the worker's own execCtx.  Scan leaves resolve their relations through
// a snapshot the Merge takes before the gang starts, so a Source that is not
// safe for concurrent use — a transaction recording the relations it reads —
// is never called from two workers.  Statistics follow the same rule: each worker
// records into its own counters, and the Merge folds them into the parent's
// Stats after the gang joins — there are no shared atomics on the hot path.
// In a parallel region each logical operator executes once per worker, and
// Stats.Operators counts operator executions, so a node under a W-worker
// Merge contributes W.
package plan

import (
	"context"
	"fmt"
	"strings"

	"mra/internal/multiset"
	"mra/internal/schema"
	"mra/internal/tuple"
)

// Source resolves database relation names to relation instances.  The
// planner reads every base-relation fact from the instance it returns
// (Planner.Cards) and the executor scans the same source; eval.Source is
// this interface, and the storage engine, transactions and map sources
// implement it.
type Source interface {
	// Relation returns the named relation instance.
	Relation(name string) (*multiset.Relation, bool)
}

// Emit receives one chunk (t, n): tuple t occurs n more times.  It is the
// row-level callback at the edges of the batch stream — Batch.forEach hands
// a batch's live chunks to one, and batchWriter.push is one — never the
// stream between two operators.  Returning an error aborts the stream.
type Emit func(t tuple.Tuple, n uint64) error

// Node is one physical operator of a compiled plan.  Nodes are built by the
// Planner and are immutable once compiled; a plan may be executed any number
// of times and against different sources (the schemas must match the catalog
// it was planned against).
type Node interface {
	// Schema is the operator's output schema, fixed at plan time.
	Schema() schema.Relation
	// Children returns the operator's input operators.
	Children() []Node
	// Describe renders the operator and its physical choices on one line.
	Describe() string
	// Estimate is the planner's output-cardinality estimate for this node.
	Estimate() float64

	// meta exposes the embedded bookkeeping; it also keeps the interface
	// closed to this package.
	meta() *base

	// run streams the operator's output into emit, batch-wise.
	run(ctx *execCtx, emit EmitBatch) error
}

// base carries the bookkeeping every physical operator shares.
type base struct {
	schema schema.Relation
	est    float64
	id     int
	// exactEst marks estimates that are known cardinalities (base table
	// scans), rendered without the "~" approximation marker.
	exactEst bool
	// capHint sizes result relations, and bounds the group count the
	// two-phase aggregate choice weighs.  It deliberately differs from est
	// where the estimate is a poor allocation guide: a hash join's output is
	// sized by its probe side, and scans size by distinct tuples rather than
	// occurrences when the source can tell them apart.
	capHint float64
	// ndvHint, when positive, is the planner's distinct-tuple estimate for
	// this operator's output, rendered as ndv= in explain output.  Zero means
	// no distinct estimate is known (or it equals est and adds nothing).
	ndvHint float64
	// cols carries the per-output-column statistics (distinct-value
	// estimates, histogram provenance) the planner propagates from analysed
	// base relations; nil when no statistics are available.
	colStats []colStat
}

func (b *base) Schema() schema.Relation { return b.schema }
func (b *base) Estimate() float64       { return b.est }
func (b *base) meta() *base             { return b }

// Stats aggregates execution statistics, recorded per physical operator.
type Stats struct {
	// IntermediateTuples is the total number of tuples (counting
	// multiplicities) emitted by all non-leaf operators.
	IntermediateTuples uint64
	// PeakRelationTuples is the largest single non-leaf operator output seen.
	PeakRelationTuples uint64
	// Operators counts non-leaf operator executions; inside a parallel region
	// each logical operator executes once per worker and counts each time.
	Operators int
	// MaterialisedTuples counts tuples (with multiplicity) stored in
	// operator-internal state: hash-join build tables, nested-loop inner
	// relations, aggregation tables, the build side of ∸ and ∩, and the
	// closure's input.  Fully pipelined plans report zero.
	MaterialisedTuples uint64
	// PerOperator breaks the same numbers down by operator, in plan
	// (pre-order) position.
	PerOperator []OperatorStats
}

// OperatorStats is the per-operator slice of Stats.
type OperatorStats struct {
	// Operator is the operator's Describe rendering.
	Operator string
	// Emitted is the number of tuples (counting multiplicities) the operator
	// emitted downstream.
	Emitted uint64
	// Materialised is the number of tuples the operator held in internal
	// state (zero for fully streaming operators).
	Materialised uint64
}

// Plan is a compiled physical plan.
type Plan struct {
	// Root is the plan's top operator.
	Root Node
	// nodes lists all operators in pre-order; ids index into it.
	nodes []Node
	// batchSize is the emit batch size the planner chose for this plan.
	batchSize int
	// memLimit is the per-execution memory budget in bytes the planner chose;
	// zero disables enforcement.
	memLimit int64
}

// Execute runs the plan against a source and collects the root stream into a
// fresh relation.
func (p *Plan) Execute(src Source) (*multiset.Relation, error) {
	rel, _, err := p.exec(context.Background(), src, nil)
	return rel, err
}

// ExecuteStatsContext is Execute under a lifecycle context, with
// per-operator statistics accumulated into st when it is non-nil.  The plan
// polls ctx at amortised checkpoints (per morsel claim, per batch) and aborts
// with ctx.Err() once it is cancelled or past its deadline; a Background
// context makes every checkpoint a no-op.
func (p *Plan) ExecuteStatsContext(ctx context.Context, src Source, st *Stats) (*multiset.Relation, error) {
	rel, _, err := p.exec(ctx, src, st)
	return rel, err
}

// ExecuteRuns is ExecuteStatsContext that also returns the result's
// presentation order: the counted runs a Sort root emitted, nil for a plan
// without one.  The runs hold exactly the result's occurrences.
func (p *Plan) ExecuteRuns(ctx context.Context, src Source, st *Stats) (*multiset.Relation, []Run, error) {
	return p.exec(ctx, src, st)
}

// exec is the one result sink of every execution: it collects the root
// stream into a fresh relation and returns it beside the runs a Sort root
// recorded.
func (p *Plan) exec(qctx context.Context, src Source, st *Stats) (*multiset.Relation, []Run, error) {
	ctx := p.newExecCtx(qctx, src, st)
	if err := ctx.poll(); err != nil {
		return nil, nil, err
	}
	out := multiset.NewWithCapacity(p.Root.Schema(), capacityFor(p.Root.meta().capHint))
	err := ctx.collect(p.Root, out)
	if st != nil {
		st.PerOperator = append(st.PerOperator, ctx.perOp...)
	}
	if err != nil {
		return nil, nil, err
	}
	return out, ctx.runs, nil
}

// newExecCtx builds the root execution context of one plan execution: the
// lifecycle context (wired through setContext so uncancellable contexts keep
// the zero-cost fast path), the memory gauge when the planner set a budget,
// and the per-operator statistics slots.
func (p *Plan) newExecCtx(qctx context.Context, src Source, st *Stats) *execCtx {
	ctx := &execCtx{src: src, stats: st, batchSize: p.batchSize}
	ctx.setContext(qctx)
	if p.memLimit > 0 {
		ctx.mem = NewMemoryGauge(p.memLimit)
	}
	if st != nil {
		ctx.perOp = make([]OperatorStats, len(p.nodes))
		for i, n := range p.nodes {
			ctx.perOp[i].Operator = n.Describe()
		}
	}
	return ctx
}

// String renders the plan as an indented operator tree with cardinality
// estimates, suitable for explain output.
func (p *Plan) String() string { return p.Render(nil) }

// Render renders the plan like String and, when st carries the per-operator
// statistics of an execution of this very plan, annotates every non-leaf
// operator with the actual number of tuples it emitted (act=).  Operators with
// a distinct-tuple estimate differing from their row estimate additionally
// show it as ndv=.  A nil st (or stats from a different plan shape) renders
// estimates only.
func (p *Plan) Render(st *Stats) string {
	var acts []OperatorStats
	if st != nil && len(st.PerOperator) == len(p.nodes) {
		acts = st.PerOperator
	}
	var b strings.Builder
	renderNode(&b, p.Root, "", "", acts)
	return strings.TrimRight(b.String(), "\n")
}

func renderNode(b *strings.Builder, n Node, head, tail string, acts []OperatorStats) {
	m := n.meta()
	marker := "~"
	if m.exactEst {
		marker = "="
	}
	rows := int64(n.Estimate() + 0.5)
	if rows == 0 && n.Estimate() > 0 {
		rows = 1
	}
	fmt.Fprintf(b, "%s%s  (est%s%d rows", head, n.Describe(), marker, rows)
	if ndv := int64(m.ndvHint + 0.5); ndv > 0 && ndv != rows {
		fmt.Fprintf(b, ", ndv=%d", ndv)
	}
	children := n.Children()
	if acts != nil && len(children) > 0 {
		fmt.Fprintf(b, ", act=%d", acts[m.id].Emitted)
	}
	b.WriteString(")\n")
	for i, c := range children {
		if i == len(children)-1 {
			renderNode(b, c, tail+"└─ ", tail+"   ", acts)
		} else {
			renderNode(b, c, tail+"├─ ", tail+"│  ", acts)
		}
	}
}

// execCtx carries per-execution state through the operator tree.  Inside a
// parallel region every worker owns a private execCtx (and private stats), so
// operators never synchronise; the Merge folds worker contexts back into the
// parent with foldWorkers.
type execCtx struct {
	src   Source
	stats *Stats
	perOp []OperatorStats
	// batchSize is the emit batch size; zero selects DefaultBatchSize.
	batchSize int
	// workers is the width of the gang this context executes in; workers <= 1
	// means serial execution, where Partition nodes are the identity.
	workers int
	// gang is the shared read-only state of the enclosing exchange (morsel
	// queues, pre-built join tables); nil outside parallel regions.
	gang *gangState
	// qctx is the query's lifecycle context and done its cached Done channel;
	// a nil done (uncancellable context) disables every poll, which is the
	// serial fast path.  See lifecycle.go.
	qctx context.Context
	done <-chan struct{}
	// mem is the query's shared memory gauge; nil disables accounting.
	mem *MemoryGauge
	// runs are the counted runs a Sort root emitted, in emission order.
	runs []Run
}

// batchCap returns the effective emit batch size.
func (ctx *execCtx) batchCap() int {
	if ctx.batchSize > 0 {
		return ctx.batchSize
	}
	return DefaultBatchSize
}

// workerCtx derives a worker's private context for a gang of the given width.
// Statistics, when enabled on the parent, are recorded into fresh per-worker
// counters and folded back by foldWorkers.
func (ctx *execCtx) workerCtx(workers int, gang *gangState) *execCtx {
	wctx := &execCtx{src: ctx.src, batchSize: ctx.batchSize, workers: workers, gang: gang, mem: ctx.mem}
	if ctx.stats != nil {
		wctx.stats = &Stats{}
		wctx.perOp = make([]OperatorStats, len(ctx.perOp))
	}
	return wctx
}

// foldWorkers accumulates the per-worker statistics of a finished gang into
// the parent context: tuple counters sum, peaks take the maximum.  Workers
// that never started — a fault-injected panic can fire before the worker
// context is built — appear as nil entries and fold nothing.
func (ctx *execCtx) foldWorkers(workers []*execCtx) {
	if ctx.stats == nil {
		return
	}
	st := ctx.stats
	for _, w := range workers {
		if w == nil {
			continue
		}
		st.IntermediateTuples += w.stats.IntermediateTuples
		st.MaterialisedTuples += w.stats.MaterialisedTuples
		st.Operators += w.stats.Operators
		if w.stats.PeakRelationTuples > st.PeakRelationTuples {
			st.PeakRelationTuples = w.stats.PeakRelationTuples
		}
		for i := range w.perOp {
			ctx.perOp[i].Emitted += w.perOp[i].Emitted
			ctx.perOp[i].Materialised += w.perOp[i].Materialised
		}
	}
}

// run streams a node's output into emit, recording emission statistics for
// non-leaf operators when enabled: the one driver every operator executes
// through.
func (ctx *execCtx) run(n Node, emit EmitBatch) error {
	if ctx.stats == nil || len(n.Children()) == 0 {
		return n.run(ctx, emit)
	}
	var emitted uint64
	err := n.run(ctx, func(b *Batch) error {
		emitted += b.Total()
		return emit(b)
	})
	ctx.record(n, emitted)
	return err
}

// record accounts one finished operator execution that emitted the given
// number of tuple occurrences.
func (ctx *execCtx) record(n Node, emitted uint64) {
	st := ctx.stats
	st.Operators++
	st.IntermediateTuples += emitted
	if emitted > st.PeakRelationTuples {
		st.PeakRelationTuples = emitted
	}
	ctx.perOp[n.meta().id].Emitted += emitted
}

// collect streams a node's output into a relation, polling the query context
// once per batch.  Row-view batches are read in place by AddBatch /
// AddBatchSel; columnar batches go to AddColumns, which probes the relation
// off the column vectors and builds a tuple only for a live row it does not
// hold yet — the sink keeps one tuple per distinct row, never one per input
// row.
func (ctx *execCtx) collect(n Node, out *multiset.Relation) error {
	return ctx.run(n, func(b *Batch) error {
		if err := ctx.poll(); err != nil {
			return err
		}
		switch {
		case b.Tuples == nil:
			out.AddColumns(b.Cols, b.Counts, b.Sel)
		case b.Sel == nil:
			out.AddBatch(b.Tuples, b.Counts)
		default:
			out.AddBatchSel(b.Tuples, b.Counts, b.Sel)
		}
		return nil
	})
}

// materialised records tuples held in an operator's internal state.
func (ctx *execCtx) materialised(n Node, count uint64) {
	if ctx.stats == nil {
		return
	}
	ctx.stats.MaterialisedTuples += count
	ctx.perOp[n.meta().id].Materialised += count
}

// capacityFor converts a cardinality estimate into a pre-sizing hint, clamped
// so a wild overestimate cannot balloon an allocation.
func capacityFor(est float64) int {
	const maxHint = 1 << 16
	if est <= 0 {
		return 0
	}
	if est >= maxHint {
		return maxHint
	}
	return int(est)
}
