package plan

import (
	"context"
	"errors"
	"fmt"

	"mra/internal/exec"
	"mra/internal/multiset"
)

// This file implements the exchange operators of the morsel-driven parallel
// runtime and the planner pass that inserts them.
//
// A Merge node runs its subtree once per worker of a gang (exec.Gather);
// every worker executes the same operator tree but sees only a disjoint slice
// of the inputs, cut by the Partition nodes directly above the scans.  Each
// worker's output stream is collected into a private partial relation, and
// the Merge streams the partials to its consumer, which sums them — exact
// under bag semantics, because multiplicities add across disjoint partitions
// (the paper's relations are functions dom(𝓡) → ℕ, and the operators
// parallelised here distribute over partition union).
//
// The morsel is the only split.  A Partition takes no fixed slice at all: the
// gang shares one exec.MorselQueue per scan, and every worker claims the next
// fixed-size entry range when it runs out of work.  Any disjoint split of a
// scan is exact for the three parallel shapes — streaming pipelines under
// Merge, the probe side of a shared-build hash join, and the local phase of
// a two-phase aggregate under GroupMerge — so the queue is free to
// rebalance: a worker stuck on an expensive range simply stops claiming
// while the others drain the rest, which is what keeps skewed data from
// serialising the gang behind one overloaded worker.  Operators that
// would need a key-consistent split (a one-phase grouped aggregate) or a
// build the probe workers write (the remaining counts of ∸ and ∩) stay
// serial; their streamable operands may still run as parallel pipelines.
//
// Every gang runs through one helper, runGang, the one caller of exec.Gather,
// over the shared state that gangSetup prepares.
//
// Parallel hash joins do not partition by join key at all: the exchange
// builds the join table once, in the parent, before the gang starts, and the
// workers probe it read-only over morsel-partitioned probe scans.  A complete
// shared table means no key-closure requirement on the probe split, so probe
// work rebalances freely even when the join keys are heavily skewed.
//
// All state a gang shares — morsel queues, pre-built join tables, the scan
// snapshot — is created by the parent before the workers start and is either
// read-only (tables, snapshot) or internally synchronised by one atomic
// (queues), so workers keep the single-threaded stream contract of the
// package comment.

// DefaultParallelThreshold is the estimated input cardinality (tuples,
// counting duplicates) below which the planner leaves a shape serial: under
// it, goroutine spawn and partial-merge costs dominate the divided work.
const DefaultParallelThreshold = 1024.0

// ---------------------------------------------------------------------------
// Exchange operators
// ---------------------------------------------------------------------------

// partitionNode streams the executing worker's share of a scan: the entry
// ranges it claims from the gang's shared morsel queue.  It sits only
// directly above a Scan.  Outside a parallel region it is the identity.
type partitionNode struct {
	base
	scan *scanNode
	// morselSize is the entry range size of a claim, chosen by the cost model
	// (or the planner's MorselSize override) at plan time.
	morselSize int
}

func (p *partitionNode) Children() []Node { return []Node{p.scan} }

func (p *partitionNode) Describe() string {
	return fmt.Sprintf("Partition [morsel size=%d]", p.morselSize)
}

// run drains the shared queue: the worker claims entry ranges of the scanned
// relation until none remain and streams each through emitRelation, the
// serial Scan's own loop.  The gang collectively delivers every entry
// exactly once.
func (p *partitionNode) run(ctx *execCtx, emit EmitBatch) error {
	if ctx.workers <= 1 {
		return ctx.run(p.scan, emit)
	}
	q := ctx.morselQueue(p)
	if q == nil {
		return fmt.Errorf("plan: morsel partition of %s has no queue", p.scan.name)
	}
	r, err := p.scan.lookup(ctx)
	if err != nil {
		return err
	}
	for {
		// One cancellation checkpoint per claimed morsel: the amortised point
		// where a gang worker notices its query was cancelled (by the user, a
		// deadline, or a failed sibling).
		if err := ctx.poll(); err != nil {
			return err
		}
		lo, hi, ok := q.Next()
		if !ok {
			return nil
		}
		if err := emitRelation(ctx, r, lo, hi, emit); err != nil {
			return err
		}
	}
}

// mergeNode is the gang boundary: it executes its subtree once per worker on
// the exec runtime and emits the sum of the per-worker partial multisets.
// Nested inside an already parallel region it degrades to a pass-through, so
// a plan remains correct however exchanges end up composed.
type mergeNode struct {
	base
	input   Node
	workers int
}

func (m *mergeNode) Children() []Node { return []Node{m.input} }
func (m *mergeNode) Describe() string { return fmt.Sprintf("Merge [workers=%d]", m.workers) }

// gangState is the shared state of one gang execution, created by the parent
// before the workers start: the morsel queues (one per morsel partition,
// internally synchronised) and the join tables the parent built (read-only
// once built).  Workers access it through their execCtx and never mutate the
// maps.
type gangState struct {
	morsels map[int]*exec.MorselQueue
	builds  map[int]*joinBuild
}

// morselQueue returns the gang's shared queue for a morsel partition, or nil
// outside a gang.
func (ctx *execCtx) morselQueue(p *partitionNode) *exec.MorselQueue {
	if ctx.gang == nil {
		return nil
	}
	return ctx.gang.morsels[p.meta().id]
}

// sharedBuild returns the gang's pre-built table for a shared hash join, or
// nil when the join must build its own.
func (ctx *execCtx) sharedBuild(j *hashJoinNode) *joinBuild {
	if ctx.gang == nil {
		return nil
	}
	return ctx.gang.builds[j.meta().id]
}

// snapshotSource is a frozen name→relation map handed to worker goroutines.
// Workers must not call the parent's Source: transaction sources record the
// relations they resolve (for commit validation) and are not safe for
// concurrent use, so every scan leaf is resolved once, in the parent
// goroutine, before the gang starts.
type snapshotSource map[string]*multiset.Relation

// Relation implements Source.
func (s snapshotSource) Relation(name string) (*multiset.Relation, bool) {
	r, ok := s[name]
	return r, ok
}

// snapshotScans pre-resolves every scan leaf under n through the parent
// context's source.
func snapshotScans(ctx *execCtx, n Node, into snapshotSource) error {
	var name string
	switch s := n.(type) {
	case *scanNode:
		name = s.name
	case *indexScanNode:
		// Never under a Partition, but possibly in a build subtree the
		// parent runs over the snapshot.
		name = s.name
	}
	if _, done := into[name]; name != "" && !done {
		r, err := lookupRelation(ctx, name)
		if err != nil {
			return err
		}
		into[name] = r
	}
	for _, c := range n.Children() {
		if err := snapshotScans(ctx, c, into); err != nil {
			return err
		}
	}
	return nil
}

// prepare builds the gang's shared state for the subtree: one morsel queue
// per morsel partition (sized over the scanned relation's entry arena) and
// one join table per shared hash join, built here in the parent — once,
// single-threaded — so the workers only probe.  The build subtree of a
// shared join executes during prepare and is therefore not walked for
// worker-side state.  The caller's ctx resolves scans through the gang
// snapshot, so the build and the queues see exactly the relations the
// workers will.
func prepare(ctx *execCtx, n Node, gs *gangState) error {
	switch x := n.(type) {
	case *partitionNode:
		r, err := x.scan.lookup(ctx)
		if err != nil {
			return err
		}
		gs.morsels[x.meta().id] = exec.NewMorselQueue(r.EntrySpan(), x.morselSize)
		return nil
	case *hashJoinNode:
		if x.shared {
			jb, err := x.buildTable(ctx)
			if err != nil {
				return err
			}
			gs.builds[x.meta().id] = jb
			probe, _ := x.probeSide()
			return prepare(ctx, probe, gs)
		}
	}
	for _, c := range n.Children() {
		if err := prepare(ctx, c, gs); err != nil {
			return err
		}
	}
	return nil
}

// gangSetup builds the shared state of one gang execution over a subtree,
// common to both exchange flavours (Merge and GroupMerge): the scan snapshot
// and the gang state — morsel queues and shared join tables, built here in
// the parent.  It returns the context the gang runs under, which resolves
// scans through the snapshot (statistics still flow into the parent's
// counters via the shared pointers), so shared-join builds see exactly the
// relations the workers will and the source is not walked a second time.
func gangSetup(ctx *execCtx, subtree Node) (*execCtx, *gangState, error) {
	snap := make(snapshotSource)
	if err := snapshotScans(ctx, subtree, snap); err != nil {
		return nil, nil, err
	}
	gs := &gangState{morsels: make(map[int]*exec.MorselQueue), builds: make(map[int]*joinBuild)}
	pctx := *ctx
	pctx.src = snap
	if err := prepare(&pctx, subtree, gs); err != nil {
		return nil, nil, err
	}
	return &pctx, gs, nil
}

// runGang runs produce once per worker of a gang of the given width and
// returns the per-worker results in worker order: the one place a gang is
// started.  Every worker gets a private execCtx over ctx's source and the
// shared gang state gs; the workers' statistics fold back into ctx when the
// gang finishes, and a worker panic surfaces named after the boundary
// operator n.
func runGang[T any](ctx *execCtx, n Node, workers int, gs *gangState, produce func(wctx *execCtx) (T, error)) ([]T, error) {
	wctxs := make([]*execCtx, workers)
	out, err := exec.Gather(ctx.queryCtx(), workers, func(gctx context.Context, w int) (T, error) {
		wctx := ctx.workerCtx(workers, gs)
		wctx.setContext(gctx)
		wctxs[w] = wctx
		return produce(wctx)
	})
	ctx.foldWorkers(wctxs)
	if err != nil {
		return nil, wrapGangErr(n, err)
	}
	return out, nil
}

// wrapGangErr attaches the gang boundary's operator to a recovered worker
// panic, so the surfaced error names both the worker (from exec.PanicError)
// and the operator whose gang it crashed.
func wrapGangErr(n Node, err error) error {
	var pe *exec.PanicError
	if errors.As(err, &pe) {
		return fmt.Errorf("%s: %w", n.Describe(), err)
	}
	return err
}

// partials runs the subtree once per worker, each collecting its output
// stream into a private relation, and returns the per-worker partials.
// Their sum is the merged result: disjoint inputs may still produce
// overlapping output tuples (a projection can collapse tuples of different
// morsels onto one), so consumers add multiplicities.
func (m *mergeNode) partials(ctx *execCtx) ([]*multiset.Relation, error) {
	gctx, gs, err := gangSetup(ctx, m.input)
	if err != nil {
		return nil, err
	}
	capEach := capacityFor(m.input.meta().capHint)/m.workers + 1
	parts, err := runGang(gctx, m, m.workers, gs, func(wctx *execCtx) (*multiset.Relation, error) {
		into := multiset.NewWithCapacity(m.input.Schema(), capEach)
		return into, wctx.collect(m.input, into)
	})
	if err != nil {
		return nil, err
	}
	// The per-worker partials are the exchange's materialised state.
	var held uint64
	for _, r := range parts {
		held += r.Cardinality()
	}
	ctx.materialised(m, held)
	return parts, nil
}

// run streams the per-worker partials out batch-wise, one after the other.
func (m *mergeNode) run(ctx *execCtx, emit EmitBatch) error {
	if ctx.workers > 1 {
		// Nested inside an already parallel region: degrade to a
		// pass-through, so composed exchanges stay correct.
		return ctx.run(m.input, emit)
	}
	parts, err := m.partials(ctx)
	if err != nil {
		return err
	}
	for _, r := range parts {
		if err := emitRelation(ctx, r, 0, r.EntrySpan(), emit); err != nil {
			return err
		}
	}
	return nil
}

// groupMergeNode is the gang boundary of a two-phase parallel aggregate.  Its
// child is the local phase: a hashAggNode (marked partial) whose input
// pipeline is morsel-partitioned, so every worker pre-aggregates the morsels
// it claims into a private group table of partial AggStates.  The parent then
// combines the per-worker tables with MergePartial and finalises — the global
// phase.  No key-consistent split is required: a group may span every
// worker, the partial states just merge.  That is what makes global
// (ungrouped) aggregates parallel, keeps hot groups from serialising the
// gang, and shrinks merge traffic from one tuple per input occurrence to one
// partial state per (worker, group).
type groupMergeNode struct {
	base
	agg     *hashAggNode
	workers int
}

func (m *groupMergeNode) Children() []Node { return []Node{m.agg} }
func (m *groupMergeNode) Describe() string {
	return fmt.Sprintf("GroupMerge [workers=%d]", m.workers)
}

// gangTables runs the local phase once per worker and merges the partial
// tables into one global table, ready to finalise.
func (m *groupMergeNode) gangTables(ctx *execCtx) (*groupTable, error) {
	gctx, gs, err := gangSetup(ctx, m.agg.input)
	if err != nil {
		return nil, err
	}
	tables, err := runGang(gctx, m, m.workers, gs, m.agg.buildGroups)
	if err != nil {
		return nil, err
	}
	global := tables[0]
	for _, tb := range tables[1:] {
		if err := global.mergeFrom(tb); err != nil {
			return nil, err
		}
	}
	// The exchange's own state is the merged global table; the per-worker
	// partials were already charged to the aggregate node by buildGroups.
	ctx.materialised(m, uint64(global.len()))
	return global, nil
}

// run streams the finalised global groups out batch-wise.
func (m *groupMergeNode) run(ctx *execCtx, emit EmitBatch) error {
	if ctx.workers > 1 {
		// Nested inside an already parallel region: degrade to a pass-through,
		// like mergeNode, so composed exchanges stay correct.
		return ctx.run(m.agg, emit)
	}
	groups, err := m.gangTables(ctx)
	if err != nil {
		return err
	}
	return groups.output(ctx, emit)
}

// ---------------------------------------------------------------------------
// Planner pass
// ---------------------------------------------------------------------------

// parallelize walks a freshly compiled plan top-down and wraps the topmost
// eligible shapes in exchanges.  A wrapped subtree is not revisited — its
// operators already execute once per worker — while ineligible nodes are kept
// serial and their children are visited instead.
func (pl *Planner) parallelize(n Node) Node {
	if pl.Workers <= 1 {
		return n
	}
	workers := exec.Resolve(pl.Workers)
	if workers <= 1 {
		return n
	}
	threshold := pl.ParallelThreshold
	if threshold <= 0 {
		threshold = DefaultParallelThreshold
	}
	return pl.parallelizeNode(n, workers, threshold)
}

func (pl *Planner) parallelizeNode(n Node, workers int, threshold float64) Node {
	switch x := n.(type) {
	case *hashJoinNode:
		// Shared-build parallel join: the table is built once by the
		// exchange, the probe side runs per worker over morsel-partitioned
		// scans.  No key partitioning means probe work rebalances freely
		// under join-key skew.
		probe, _ := x.probeSide()
		if x.left.Estimate()+x.right.Estimate() >= threshold && streamable(probe) {
			x.shared = true
			wrapped := pl.partitionLeaves(probe, workers)
			// The parent builds the table serially, possibly over a nested
			// exchange of the build side's own.
			build, _ := x.buildSide()
			wrappedBuild := pl.parallelizeNode(build, workers, threshold)
			if x.buildLeft {
				x.right = wrapped
				x.left = wrappedBuild
			} else {
				x.left = wrapped
				x.right = wrappedBuild
			}
			return newMerge(x, workers)
		}
	case *hashAggNode:
		// Two-phase aggregation: morsel-partition the input pipeline, let
		// every worker pre-aggregate its morsels into partial states, and
		// merge the per-worker partial groups in the GroupMerge parent —
		// exact for any disjoint split, so it covers global aggregates and is
		// immune to group-key skew.  When pre-aggregation would not pay, the
		// aggregate and its streamable input stay serial: a parallel input
		// would only materialise its rows into per-worker partials for the
		// serial group table to re-read.
		if x.input.Estimate() >= threshold && streamable(x.input) {
			if !twoPhaseProfitable(x, workers) {
				return n
			}
			x.partial = true
			x.input = pl.partitionLeaves(x.input, workers)
			return newGroupMerge(x, workers)
		}
	case *filterNode, *projectNode, *extProjectNode, *unionNode:
		// A streaming pipeline: morsel-partition every scan so the per-tuple
		// filter/projection work divides across workers.
		if streamable(n) && pipelineWork(n) && leafEstimate(n) >= threshold {
			pl.partitionInnerLeaves(n, workers)
			return newMerge(n, workers)
		}
	}
	replaceChildren(n, func(c Node) Node { return pl.parallelizeNode(c, workers, threshold) })
	return n
}

// twoPhaseProfitable decides from the cost model's pre-aggregation reduction
// estimate whether an aggregate runs two-phase parallel or serial.  Global
// aggregates always pay: the merge combines one partial state per worker.
// Grouped aggregates pay when the global merge traffic (one partial state per
// worker and group, estimated from the node's capHint, which the scanned
// instance's DistinctCount bounds for base-table inputs) stays below one
// pass over the input; when pre-aggregation barely reduces (groups ≈ input),
// the merge re-inserts nearly every input group and the serial aggregate
// wins.
//
// Profitability is the only gate because every aggregate of Definition 3.3
// merges to the serial result bit for bit under any disjoint split of the
// input: CNT, MIN and MAX always do; SUM/AVG over integer attributes are exact
// int64 arithmetic; and SUM/AVG over float attributes carry compensated
// (Neumaier) summation in AggState, whose fsum + fcomp holds the sum at
// roughly double working precision — well past the rounding slack that
// re-associating partial sums can introduce.  An order-sensitive aggregate
// added later must not plan two-phase.
func twoPhaseProfitable(x *hashAggNode, workers int) bool {
	if len(x.gb.groupCols) == 0 {
		return true
	}
	return x.meta().capHint*float64(workers) <= x.input.Estimate()
}

// streamable reports whether the subtree is a pure streaming pipeline over
// scans — the shapes cheap and safe to replicate per worker.  Blocking or
// stateful operators (joins, aggregates, δ, set difference/intersection,
// closure) are excluded: re-running them once per worker would repeat their
// full cost, and δ above a projection is not partition-exact under any
// disjoint split of the inputs.  An IndexScan is excluded too: it has no
// entry ranges to split, and a key lookup is too small to divide.  So is a
// literal, which has no entry arena to claim ranges of.
func streamable(n Node) bool {
	switch x := n.(type) {
	case *scanNode:
		return true
	case *filterNode:
		return streamable(x.input)
	case *projectNode:
		return streamable(x.input)
	case *extProjectNode:
		return streamable(x.input)
	case *unionNode:
		return streamable(x.left) && streamable(x.right)
	default:
		return false
	}
}

// pipelineWork reports whether the pipeline contains at least one per-tuple
// operator.  A bare scan (or union of scans) only copies tuples; splitting a
// copy across workers buys nothing and pays the exchange.
func pipelineWork(n Node) bool {
	switch x := n.(type) {
	case *filterNode, *projectNode, *extProjectNode:
		return true
	case *unionNode:
		return pipelineWork(x.left) || pipelineWork(x.right)
	default:
		return false
	}
}

// leafEstimate sums the estimated cardinalities of the subtree's leaves: the
// number of tuples the pipeline will push, which is what the parallel split
// divides.
func leafEstimate(n Node) float64 {
	if len(n.Children()) == 0 {
		return n.Estimate()
	}
	var total float64
	for _, c := range n.Children() {
		total += leafEstimate(c)
	}
	return total
}

// scanPartition wraps one scan in a work-stealing morsel partition, sized by
// the MorselSize override or else the cost model.  The estimate is the full
// stream (estimates describe the collective stream, not one worker's share);
// the capacity hint is the per-worker share, which sizes the relations
// collected from a single share.
func (pl *Planner) scanPartition(scan *scanNode, workers int) Node {
	size := pl.MorselSize
	if size <= 0 {
		size = morselSizeFor(scan.capHint, workers)
	}
	p := &partitionNode{scan: scan, morselSize: size}
	p.schema = scan.Schema()
	p.est = scan.Estimate()
	p.exactEst = scan.exactEst
	p.capHint = scan.capHint / float64(workers)
	return p
}

// partitionLeaves wraps every scan of a streamable subtree in a morsel
// partition and returns the wrapped tree (which is the partition itself when
// the subtree is a bare scan).
func (pl *Planner) partitionLeaves(n Node, workers int) Node {
	if scan, ok := n.(*scanNode); ok {
		return pl.scanPartition(scan, workers)
	}
	pl.partitionInnerLeaves(n, workers)
	return n
}

// partitionInnerLeaves wraps every scan strictly below n in a morsel
// partition.
func (pl *Planner) partitionInnerLeaves(n Node, workers int) {
	replaceChildren(n, func(c Node) Node { return pl.partitionLeaves(c, workers) })
}

// replaceChildren rewrites each child edge of a node in place.
func replaceChildren(n Node, f func(Node) Node) {
	switch x := n.(type) {
	case *filterNode:
		x.input = f(x.input)
	case *projectNode:
		x.input = f(x.input)
	case *extProjectNode:
		x.input = f(x.input)
	case *uniqueNode:
		x.input = f(x.input)
	case *unionNode:
		x.left, x.right = f(x.left), f(x.right)
	case *hashJoinNode:
		x.left, x.right = f(x.left), f(x.right)
	case *nestedLoopNode:
		x.left, x.right = f(x.left), f(x.right)
	case *differenceNode:
		x.left, x.right = f(x.left), f(x.right)
	case *intersectNode:
		x.left, x.right = f(x.left), f(x.right)
	case *hashAggNode:
		x.input = f(x.input)
	case *tcloseNode:
		x.input = f(x.input)
	case *sortNode:
		x.input = f(x.input)
	}
}

// newGroupMerge wraps a partial hash aggregate in the two-phase exchange's
// gang boundary.
func newGroupMerge(agg *hashAggNode, workers int) Node {
	m := &groupMergeNode{agg: agg, workers: workers}
	m.schema = agg.Schema()
	m.est = agg.Estimate()
	m.exactEst = agg.meta().exactEst
	m.capHint = agg.meta().capHint
	return m
}

// newMerge wraps a node in a Merge of the given gang width.
func newMerge(input Node, workers int) Node {
	m := &mergeNode{input: input, workers: workers}
	m.schema = input.Schema()
	m.est = input.Estimate()
	m.exactEst = input.meta().exactEst
	m.capHint = input.meta().capHint
	return m
}
