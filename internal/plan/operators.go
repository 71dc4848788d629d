package plan

import (
	"fmt"
	"strconv"
	"strings"

	"mra/internal/multiset"
	"mra/internal/scalar"
	"mra/internal/tuple"
	"mra/internal/value"
)

// This file implements the physical operators.  Streaming operators (Filter,
// Project, ExtProject, Union, Unique, the probe phases of the joins) process
// one batch at a time; blocking operators materialise exactly the state their
// algorithm needs and account for it via execCtx.materialised.

// ---------------------------------------------------------------------------
// Leaves
// ---------------------------------------------------------------------------

// scanNode reads a named database relation from the source.
type scanNode struct {
	base
	name string
	key  int // key column of the instance planned from, or -1; see indexScan
}

func (s *scanNode) Children() []Node { return nil }
func (s *scanNode) Describe() string { return "Scan " + s.name }

func (s *scanNode) lookup(ctx *execCtx) (*multiset.Relation, error) {
	return lookupRelation(ctx, s.name)
}

// lookupRelation resolves a leaf's relation through the execution's source.
func lookupRelation(ctx *execCtx, name string) (*multiset.Relation, error) {
	r, ok := ctx.src.Relation(name)
	if !ok {
		return nil, fmt.Errorf("plan: unknown relation %q", name)
	}
	return r, nil
}

// run streams the relation's distinct entries batch-wise straight off the
// hash-table arena.  Leaf streams are where long pipelines spend their time,
// so emitRelation's per-batch poll is the pipeline's cancellation checkpoint.
func (s *scanNode) run(ctx *execCtx, emit EmitBatch) error {
	r, err := s.lookup(ctx)
	if err != nil {
		return err
	}
	return emitRelation(ctx, r, emit)
}

// result implements materializer: the clone is an O(1) copy-on-write view.
func (s *scanNode) result(ctx *execCtx) (*multiset.Relation, error) {
	r, err := s.lookup(ctx)
	if err != nil {
		return nil, err
	}
	return r.Clone(), nil
}

// indexScanNode reads the entries of a named database relation whose key
// column hashes like a constant: one key chain of the instance
// (multiset.Relation.EachKey), a superset of the entries the equality
// "%col = val" selects.  The planner places it only under a Filter holding
// the whole selection, which drops the rest.  An instance with no key chain
// on col — a temporary, or a relation replaced wholesale since the plan was
// made — is scanned whole instead, so the leaf is right whatever instance
// the source hands it.  It is never morsel-partitioned.
type indexScanNode struct {
	base
	name string
	col  int
	val  value.Value
}

func (s *indexScanNode) Children() []Node { return nil }
func (s *indexScanNode) Describe() string {
	return fmt.Sprintf("IndexScan %s [%%%d = %s]", s.name, s.col+1, s.val)
}

// run emits the key chain's live entries in batches sized by the chain, not
// by the batch size: a point lookup allocates for the rows it finds.
func (s *indexScanNode) run(ctx *execCtx, emit EmitBatch) error {
	r, err := lookupRelation(ctx, s.name)
	if err != nil {
		return err
	}
	var b Batch
	flush := func() error {
		if err := ctx.poll(); err != nil {
			return err
		}
		err := emit(&b)
		b.reset()
		return err
	}
	size := ctx.batchCap()
	keyed := r.EachKey(s.col, s.val, func(t tuple.Tuple, n uint64) bool {
		b.Tuples = append(b.Tuples, t)
		b.Counts = append(b.Counts, n)
		if len(b.Tuples) == size {
			err = flush()
		}
		return err == nil
	})
	if !keyed {
		return emitRelation(ctx, r, emit)
	}
	if err != nil || len(b.Tuples) == 0 {
		return err
	}
	return flush()
}

// valuesNode emits the rows of a literal relation, one occurrence each.
type valuesNode struct {
	base
	rows [][]value.Value
}

func (v *valuesNode) Children() []Node { return nil }
func (v *valuesNode) Describe() string { return fmt.Sprintf("Values (%d rows)", len(v.rows)) }

func (v *valuesNode) run(ctx *execCtx, emit EmitBatch) error {
	w := newBatchWriter(ctx, emit)
	for _, row := range v.rows {
		if err := w.push(tuple.New(row...), 1); err != nil {
			return err
		}
	}
	return w.flush()
}

// ---------------------------------------------------------------------------
// Streaming unary operators
// ---------------------------------------------------------------------------

// filterNode is the streaming selection σφ.
type filterNode struct {
	base
	pred  scalar.Predicate
	input Node
}

func (f *filterNode) Children() []Node { return []Node{f.input} }
func (f *filterNode) Describe() string { return fmt.Sprintf("Filter [%s]", f.pred) }

// run refines each input batch's selection vector through a selector —
// a selective filter flips live-row indices in tight per-column kernel loops
// (or, for predicates the kernels cannot express, row-wise Holds) and never
// moves a value.
func (f *filterNode) run(ctx *execCtx, emit EmitBatch) error {
	sel := newSelector(f.pred)
	var out Batch
	return ctx.run(f.input, func(b *Batch) error {
		live, err := sel.refine(b)
		if err != nil || live != nil && len(live) == 0 {
			return err
		}
		out = *b
		out.Sel = live
		return emit(&out)
	})
}

// projectNode is the streaming positional projection πα.
type projectNode struct {
	base
	cols  []int
	input Node
}

func (p *projectNode) Children() []Node { return []Node{p.input} }
func (p *projectNode) Describe() string { return "Project [" + colList(p.cols) + "]" }

// run emits the input's column vectors re-ordered per the projection list —
// shared, never copied — with the counts and selection passed through
// untouched.  Projection indices are validated at plan time, so no per-tuple
// range check is needed.
func (p *projectNode) run(ctx *execCtx, emit EmitBatch) error {
	var cc colCache
	outCols := make([]value.Vec, len(p.cols))
	var out Batch
	return ctx.run(p.input, func(b *Batch) error {
		cc.batch(b)
		for j, c := range p.cols {
			outCols[j] = cc.col(c)
		}
		out = Batch{Counts: b.Counts, Cols: outCols, Sel: b.Sel}
		return emit(&out)
	})
}

// extProjectNode is the streaming extended (arithmetic) projection.
type extProjectNode struct {
	base
	items []scalar.Expr
	input Node
}

func (p *extProjectNode) Children() []Node { return []Node{p.input} }

func (p *extProjectNode) Describe() string {
	items := make([]string, len(p.items))
	for i, it := range p.items {
		items[i] = it.String()
	}
	return "ExtProject [" + strings.Join(items, ", ") + "]"
}

// run shares the input's column vectors for bare attribute items and
// evaluates computed items column-at-a-time (evalAt) into reusable scratch
// vectors over live rows only — dead rows are never evaluated, so a row a
// filter killed cannot surface an expression error.
func (p *extProjectNode) run(ctx *execCtx, emit EmitBatch) error {
	var cc colCache
	outCols := make([]value.Vec, len(p.items))
	scratch := make([]value.Vec, len(p.items))
	var out Batch
	return ctx.run(p.input, func(b *Batch) error {
		cc.batch(b)
		rows := b.rows()
		n := b.Len()
		for j, item := range p.items {
			if a, ok := item.(scalar.Attr); ok {
				outCols[j] = cc.col(a.Index)
				continue
			}
			vec := scratch[j]
			if cap(vec) < rows {
				vec = make(value.Vec, rows)
			} else {
				vec = vec[:rows]
			}
			for i := 0; i < n; i++ {
				r := b.Row(i)
				v, err := evalAt(item, b, &cc, r)
				if err != nil {
					return err
				}
				vec[r] = v
			}
			scratch[j], outCols[j] = vec, vec
		}
		out = Batch{Counts: b.Counts, Cols: outCols, Sel: b.Sel}
		return emit(&out)
	})
}

// uniqueNode is the duplicate elimination δ.  It streams: each distinct tuple
// is emitted (with multiplicity one) the first time it is seen, so downstream
// operators start before the input is exhausted; the seen-set is the
// operator's only state.
type uniqueNode struct {
	base
	input Node
}

func (u *uniqueNode) Children() []Node { return []Node{u.input} }
func (u *uniqueNode) Describe() string { return "Unique" }

// run probes the seen-set with every live row — a columnar row straight off
// its column vectors (tupleSet.insert), so only a first sighting builds a
// tuple — and emits first sightings row-wise.
func (u *uniqueNode) run(ctx *execCtx, emit EmitBatch) error {
	seen := newTupleSet(capacityFor(u.capHint))
	w := newBatchWriter(ctx, emit)
	err := ctx.run(u.input, func(b *Batch) error {
		n := b.Len()
		for i := 0; i < n; i++ {
			t, first := seen.insert(b, b.Row(i))
			if !first {
				continue
			}
			if err := ctx.chargeTuple(t); err != nil {
				return err
			}
			if err := w.push(t, 1); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		err = w.flush()
	}
	ctx.materialised(u, uint64(seen.len()))
	return err
}

// unionNode is the multi-set union ⊎: it streams the left operand and then
// the right one; multiplicities add up at the consumer.
type unionNode struct {
	base
	left, right Node
}

func (u *unionNode) Children() []Node { return []Node{u.left, u.right} }
func (u *unionNode) Describe() string { return "Union" }

func (u *unionNode) run(ctx *execCtx, emit EmitBatch) error {
	if err := ctx.run(u.left, emit); err != nil {
		return err
	}
	return ctx.run(u.right, emit)
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

// joinTable is the materialised build side of a hash join: a flat node arena
// with collision chains headed by a hash index (no per-tuple key allocation).
// Once built it is read-only, which is what lets a parallel join build it once
// and share it across the gang's probe workers.
type joinTable struct {
	nodes []joinChainNode
	index map[uint64]int32
	// built counts the tuple occurrences the table holds.
	built uint64
}

// joinChainNode is one arena slot of a joinTable.
type joinChainNode struct {
	tup   tuple.Tuple
	count uint64
	next  int32
}

// newJoinTable returns an empty table pre-sized for about capacity entries.
func newJoinTable(capacity int) *joinTable {
	return &joinTable{
		nodes: make([]joinChainNode, 0, capacity),
		index: make(map[uint64]int32, capacity),
	}
}

// absorb appends another table's arena to tb and splices its collision
// chains into tb's index: node links shift by tb's old length, and where both
// tables hold a hash bucket the absorbed chain's tail links onto tb's
// existing head.  It is how the morsel-parallel build merges the gang's
// partition-local tables into the one shared table the probe workers read.
func (tb *joinTable) absorb(o *joinTable) {
	off := int32(len(tb.nodes))
	tb.nodes = append(tb.nodes, o.nodes...)
	for i := off; i < int32(len(tb.nodes)); i++ {
		if tb.nodes[i].next != -1 {
			tb.nodes[i].next += off
		}
	}
	for h, head := range o.index {
		nh := head + off
		if cur, ok := tb.index[h]; ok {
			tail := nh
			for tb.nodes[tail].next != -1 {
				tail = tb.nodes[tail].next
			}
			tb.nodes[tail].next = cur
		}
		tb.index[h] = nh
	}
	tb.built += o.built
}

// insert adds one build chunk under the hash of its join columns.
func (tb *joinTable) insert(t tuple.Tuple, n uint64, buildCols []int) {
	h := t.HashOn(buildCols)
	head, ok := tb.index[h]
	if !ok {
		head = -1
	}
	tb.index[h] = int32(len(tb.nodes))
	tb.nodes = append(tb.nodes, joinChainNode{tup: t, count: n, next: head})
	tb.built += n
}

// hashJoinNode executes an equi-join: the build side is materialised into a
// joinTable, the probe side streams batch-wise.  The planner chooses the
// build side from the cost model's cardinality estimates.  Under parallel
// execution (shared set) the table is built once by the exchange and probed
// read-only by every worker.
type hashJoinNode struct {
	base
	left, right Node
	// leftCols/rightCols are the equi-join column pairs on the respective
	// operand schemas.
	leftCols, rightCols []int
	// residual is the conjunction of non-hashable conjuncts (nil when none),
	// addressing the concatenated schema.
	residual scalar.Predicate
	// buildLeft selects the build side; the probe side is the other operand.
	buildLeft bool
	// shared marks a parallel join: the enclosing exchange pre-builds the
	// table in the parent and workers only probe (their probe-side scans are
	// morsel-partitioned, so the gang collectively probes each tuple once).
	shared bool
	// parBuild marks a shared join whose table is itself built
	// morsel-parallel: the build side's scans are morsel-partitioned, a
	// build gang of buildWorkers workers fills partition-local tables over
	// the morsels it claims, and the exchange absorbs them into one table
	// before the probe gang starts.  The planner enables it when the
	// estimated build cardinality clears buildParallelFactor times the
	// exchange threshold.
	parBuild     bool
	buildWorkers int
}

func (j *hashJoinNode) Children() []Node { return []Node{j.left, j.right} }

func (j *hashJoinNode) Describe() string {
	leftArity := j.left.Schema().Arity()
	pairs := make([]string, len(j.leftCols))
	for i := range j.leftCols {
		pairs[i] = fmt.Sprintf("%%%d = %%%d", j.leftCols[i]+1, leftArity+j.rightCols[i]+1)
	}
	side := "right"
	if j.buildLeft {
		side = "left"
	}
	s := fmt.Sprintf("HashJoin [%s] build=%s", strings.Join(pairs, ", "), side)
	if j.shared {
		s += " shared"
	}
	if j.parBuild {
		s += fmt.Sprintf(" parbuild=%d", j.buildWorkers)
	}
	if j.residual != nil {
		s += fmt.Sprintf(" residual=[%s]", j.residual)
	}
	return s
}

// buildSide returns the build operand and its join columns.
func (j *hashJoinNode) buildSide() (Node, []int) {
	if j.buildLeft {
		return j.left, j.leftCols
	}
	return j.right, j.rightCols
}

// probeSide returns the probe operand and its join columns.
func (j *hashJoinNode) probeSide() (Node, []int) {
	if j.buildLeft {
		return j.right, j.rightCols
	}
	return j.left, j.leftCols
}

// buildTable materialises the build side into a fresh joinTable, charging the
// held tuples to the operator's state.
func (j *hashJoinNode) buildTable(ctx *execCtx) (*joinTable, error) {
	build, _ := j.buildSide()
	tb := newJoinTable(capacityFor(build.meta().capHint))
	if err := j.fill(ctx, tb); err != nil {
		return nil, err
	}
	ctx.materialised(j, tb.built)
	return tb, nil
}

// fill streams the build side into tb chunk by chunk, charging every held
// tuple to the query's memory gauge.
func (j *hashJoinNode) fill(ctx *execCtx, tb *joinTable) error {
	build, buildCols := j.buildSide()
	insert := func(t tuple.Tuple, n uint64) error {
		if err := ctx.chargeTuple(t); err != nil {
			return err
		}
		tb.insert(t, n, buildCols)
		return nil
	}
	return ctx.run(build, func(b *Batch) error { return b.forEach(insert) })
}

// run probes the (own or gang-shared) table with every live probe row.  The
// key hashes straight off the probe batch — a row-view row's tuple or a
// columnar row's vectors, never a gathered column — and chain candidates
// compare key values.  Each match is written into the join's own output
// column vectors, reused from batch to batch: the probe row's values and the
// build tuple's side by side, with the product of their multiplicities.  No
// tuple is built for a match.  A full output batch is emitted once the
// residual, if any, has narrowed its selection (selector), so a residual
// join and an equi-join share this one loop.
func (j *hashJoinNode) run(ctx *execCtx, emit EmitBatch) error {
	tb := ctx.sharedBuild(j)
	if tb == nil {
		var err error
		tb, err = j.buildTable(ctx)
		if err != nil {
			return err
		}
	}
	probe, probeCols := j.probeSide()
	if len(tb.nodes) == 0 {
		// An empty build side makes the join empty: skip hashing and probing.
		// The probe side still runs (discarding its output) because the
		// algebra is strict — errors in the probe subtree must surface even
		// when no tuple could join.
		return ctx.run(probe, discard)
	}

	build, buildCols := j.buildSide()
	probeArity, buildArity := probe.Schema().Arity(), build.Schema().Arity()
	// po and bo are the output column offsets of the probe and build values.
	po, bo := 0, probeArity
	if j.buildLeft {
		po, bo = buildArity, 0
	}
	var res *selector
	if j.residual != nil {
		res = newSelector(j.residual)
	}
	size := ctx.batchCap()
	cols := make([]value.Vec, probeArity+buildArity)
	out := Batch{Cols: make([]value.Vec, len(cols))}
	flush := func() error {
		if len(out.Counts) == 0 {
			return nil
		}
		copy(out.Cols, cols)
		out.Sel = nil
		var err error
		if res != nil {
			out.Sel, err = res.refine(&out)
		}
		if err == nil && (out.Sel == nil || len(out.Sel) > 0) {
			err = emit(&out)
		}
		for c := range cols {
			cols[c] = cols[c][:0]
		}
		out.Counts = out.Counts[:0]
		return err
	}
	keys := make([]value.Value, len(probeCols))
	err := ctx.run(probe, func(b *Batch) error {
		n := b.Len()
		for i := 0; i < n; i++ {
			r := b.Row(i)
			h := tuple.HashSeed
			for k, c := range probeCols {
				keys[k] = b.at(r, c)
				h = tuple.HashMix(h, keys[k])
			}
			head, ok := tb.index[h]
			if !ok {
				continue
			}
		chain:
			for ni := head; ni != -1; ni = tb.nodes[ni].next {
				nd := &tb.nodes[ni]
				for k, c := range buildCols {
					if !keys[k].Equal(nd.tup.At(c)) {
						continue chain
					}
				}
				for c := 0; c < probeArity; c++ {
					cols[po+c] = append(cols[po+c], b.at(r, c))
				}
				for c := 0; c < buildArity; c++ {
					cols[bo+c] = append(cols[bo+c], nd.tup.At(c))
				}
				out.Counts = append(out.Counts, b.Counts[r]*nd.count)
				if len(out.Counts) == size {
					if err := flush(); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return flush()
}

// nestedLoopNode executes a θ-join with no hashable conjunct (or a bare
// Cartesian product when cond is nil): the inner side — chosen by the planner
// as the smaller operand — is materialised once, the outer side streams.
type nestedLoopNode struct {
	base
	left, right Node
	// cond is the join condition over the concatenated schema; nil means a
	// Cartesian product.
	cond scalar.Predicate
	// innerRight selects the materialised (inner) side.
	innerRight bool
}

func (j *nestedLoopNode) Children() []Node { return []Node{j.left, j.right} }

func (j *nestedLoopNode) Describe() string {
	inner := "left"
	if j.innerRight {
		inner = "right"
	}
	if j.cond == nil {
		return "NestedLoopJoin (cross) inner=" + inner
	}
	return fmt.Sprintf("NestedLoopJoin [%s] inner=%s", j.cond, inner)
}

func (j *nestedLoopNode) run(ctx *execCtx, emit EmitBatch) error {
	inner, outer := j.left, j.right
	if j.innerRight {
		inner, outer = j.right, j.left
	}
	type chunk struct {
		tup   tuple.Tuple
		count uint64
	}
	chunks := make([]chunk, 0, capacityFor(inner.meta().capHint))
	var held uint64
	hold := func(t tuple.Tuple, n uint64) error {
		if err := ctx.chargeTuple(t); err != nil {
			return err
		}
		chunks = append(chunks, chunk{tup: t, count: n})
		held += n
		return nil
	}
	if err := ctx.run(inner, func(b *Batch) error { return b.forEach(hold) }); err != nil {
		return err
	}
	ctx.materialised(j, held)
	if len(chunks) == 0 {
		// Strictness: the outer side still runs so its errors surface.
		return ctx.run(outer, discard)
	}

	w := newBatchWriter(ctx, emit)
	join := func(ot tuple.Tuple, oc uint64) error {
		for i := range chunks {
			var joined tuple.Tuple
			if j.innerRight {
				joined = ot.Concat(chunks[i].tup)
			} else {
				joined = chunks[i].tup.Concat(ot)
			}
			if j.cond != nil {
				ok, err := j.cond.Holds(joined)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
			}
			if err := w.push(joined, oc*chunks[i].count); err != nil {
				return err
			}
		}
		return nil
	}
	if err := ctx.run(outer, func(b *Batch) error { return b.forEach(join) }); err != nil {
		return err
	}
	return w.flush()
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

// hashAggNode is the group-by operator Γ: a single-pass grouped hash table
// over the input stream, computing every aggregate of the spec in that one
// pass and emitting one tuple per group when the input is exhausted.  Under a
// two-phase parallel aggregate (partial set) the enclosing GroupMerge drives
// buildGroups per worker and merges the partial tables instead of consuming
// the node's emit stream.
type hashAggNode struct {
	base
	gb    groupSpec
	input Node
	// partial marks the per-worker local phase of a two-phase parallel
	// aggregate: the node aggregates its worker's slice into partial states
	// that the GroupMerge parent combines with MergePartial.
	partial bool
}

func (a *hashAggNode) Children() []Node { return []Node{a.input} }

func (a *hashAggNode) Describe() string {
	aggs := make([]string, len(a.gb.aggs))
	for i, sp := range a.gb.aggs {
		aggs[i] = fmt.Sprintf("%s(%%%d)", sp.Fn, sp.Col+1)
	}
	s := fmt.Sprintf("HashAggregate [(%s) %s]", colList(a.gb.groupCols), strings.Join(aggs, ", "))
	if a.partial {
		s += " partial"
	}
	return s
}

// buildGroups consumes the input into a fresh group table, folding batches
// in column-at-a-time (groupTable.addBatch), and charges the group count to
// the operator's state.
func (a *hashAggNode) buildGroups(ctx *execCtx) (*groupTable, error) {
	groups := newGroupTable(a.gb, capacityFor(a.capHint), ctx.mem)
	var cc colCache
	err := ctx.run(a.input, func(b *Batch) error {
		return groups.addBatch(b, &cc)
	})
	// The operator's state is one entry per group (aggregates fold in place),
	// not the consumed input.
	ctx.materialised(a, uint64(len(groups.groups)))
	if err != nil {
		return nil, err
	}
	return groups, nil
}

func (a *hashAggNode) run(ctx *execCtx, emit EmitBatch) error {
	groups, err := a.buildGroups(ctx)
	if err != nil {
		return err
	}
	return groups.output(ctx, emit)
}

// ---------------------------------------------------------------------------
// Blocking binary set operators and transitive closure
// ---------------------------------------------------------------------------

// differenceNode is the multi-set difference −: monus on multiplicities.
// Both operands are inherently fully consumed.
type differenceNode struct {
	base
	left, right Node
}

func (d *differenceNode) Children() []Node { return []Node{d.left, d.right} }
func (d *differenceNode) Describe() string { return "Difference" }

func (d *differenceNode) run(ctx *execCtx, emit EmitBatch) error {
	out, err := d.result(ctx)
	if err != nil {
		return err
	}
	return emitRelation(ctx, out, emit)
}

func (d *differenceNode) result(ctx *execCtx) (*multiset.Relation, error) {
	l, r, err := materializePair(ctx, d, d.left, d.right)
	if err != nil {
		return nil, err
	}
	return multiset.Difference(l, r)
}

// intersectNode is the multi-set intersection ∩: minimum of multiplicities.
type intersectNode struct {
	base
	left, right Node
}

func (i *intersectNode) Children() []Node { return []Node{i.left, i.right} }
func (i *intersectNode) Describe() string { return "Intersect" }

func (i *intersectNode) run(ctx *execCtx, emit EmitBatch) error {
	out, err := i.result(ctx)
	if err != nil {
		return err
	}
	return emitRelation(ctx, out, emit)
}

func (i *intersectNode) result(ctx *execCtx) (*multiset.Relation, error) {
	l, r, err := materializePair(ctx, i, i.left, i.right)
	if err != nil {
		return nil, err
	}
	return multiset.Intersection(l, r)
}

// tcloseNode is the transitive-closure extension of Section 5: a semi-naive
// fixpoint over the materialised input.
type tcloseNode struct {
	base
	input Node
}

func (t *tcloseNode) Children() []Node { return []Node{t.input} }
func (t *tcloseNode) Describe() string { return "TClose" }

func (t *tcloseNode) run(ctx *execCtx, emit EmitBatch) error {
	out, err := t.result(ctx)
	if err != nil {
		return err
	}
	return emitRelation(ctx, out, emit)
}

func (t *tcloseNode) result(ctx *execCtx) (*multiset.Relation, error) {
	in, err := ctx.materialize(t.input)
	if err != nil {
		return nil, err
	}
	if err := ctx.chargeRelation(in); err != nil {
		return nil, err
	}
	ctx.materialised(t, in.Cardinality())
	return transitiveClosure(ctx, in)
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

// discard consumes a stream without keeping anything; joins use it to run a
// side whose output cannot contribute but whose errors must still surface.
func discard(*Batch) error { return nil }

// materializePair materialises both operands of a blocking binary operator,
// charging their cardinalities to the operator's state — both for statistics
// and against the query's memory budget: the two materialised relations are
// exactly the state the operator holds.
func materializePair(ctx *execCtx, op Node, left, right Node) (*multiset.Relation, *multiset.Relation, error) {
	l, err := ctx.materialize(left)
	if err != nil {
		return nil, nil, err
	}
	r, err := ctx.materialize(right)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.chargeRelation(l); err != nil {
		return nil, nil, err
	}
	if err := ctx.chargeRelation(r); err != nil {
		return nil, nil, err
	}
	ctx.materialised(op, l.Cardinality()+r.Cardinality())
	return l, r, nil
}

// equalOn reports pairwise equality of a's attributes at acols with b's
// attributes at bcols: the collision check separating true hash-join matches
// from hash collisions.
func equalOn(a tuple.Tuple, acols []int, b tuple.Tuple, bcols []int) bool {
	for k := range acols {
		if !a.At(acols[k]).Equal(b.At(bcols[k])) {
			return false
		}
	}
	return true
}

// tupleSet is a hash set of tuples with positional-equality collision chains,
// used by the streaming duplicate elimination.
type tupleSet struct {
	index map[uint64]int32
	tups  []tuple.Tuple
	next  []int32
}

func newTupleSet(capacity int) *tupleSet {
	return &tupleSet{index: make(map[uint64]int32, capacity)}
}

func (s *tupleSet) len() int { return len(s.tups) }

// insert adds the tuple of physical row r of b and reports whether it was
// absent, returning the stored tuple when it was.  A columnar row is hashed
// (tuple.HashRow) and compared against the set's tuples straight off the
// column vectors, and becomes a tuple only when it is new.
func (s *tupleSet) insert(b *Batch, r int) (tuple.Tuple, bool) {
	var h uint64
	if b.Tuples != nil {
		h = b.Tuples[r].Hash()
	} else {
		h = tuple.HashRow(b.Cols, r)
	}
	head, ok := s.index[h]
	if !ok {
		head = -1
	}
	for i := head; i != -1; i = s.next[i] {
		if rowEqual(b, r, s.tups[i]) {
			return tuple.Tuple{}, false
		}
	}
	t := b.TupleAt(r)
	s.index[h] = int32(len(s.tups))
	s.tups = append(s.tups, t)
	s.next = append(s.next, head)
	return t, true
}

// rowEqual reports whether physical row r of b equals tuple t, reading a
// columnar row value by value.
func rowEqual(b *Batch, r int, t tuple.Tuple) bool {
	if b.Tuples != nil {
		return b.Tuples[r].Equal(t)
	}
	for c, col := range b.Cols {
		if !col[r].Equal(t.At(c)) {
			return false
		}
	}
	return true
}

// colList renders 0-based column positions in the 1-based %i surface syntax.
func colList(cols []int) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = "%" + strconv.Itoa(c+1)
	}
	return strings.Join(parts, ", ")
}
