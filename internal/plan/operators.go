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
// Project, ExtProject, Union, Unique, the probe phases of the joins, ∸ and ∩)
// process one batch at a time; blocking operators and build sides
// materialise exactly the state their algorithm needs — the hashing ones in
// the one hash table of hashtable.go — and account for it via
// execCtx.materialised.

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
	return emitRelation(ctx, r, 0, r.EntrySpan(), emit)
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
		return emitRelation(ctx, r, 0, r.EntrySpan(), emit)
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

// run probes the seen-set — a hashTable keyed on every column — with every
// live row, read in place, so only a first sighting builds a tuple, and emits
// first sightings row-wise.
func (u *uniqueNode) run(ctx *execCtx, emit EmitBatch) error {
	seen := newHashTable(allCols(u.Schema().Arity()))
	w := newBatchWriter(ctx, emit)
	err := ctx.run(u.input, func(b *Batch) error {
		n := b.Len()
		for i := 0; i < n; i++ {
			e, added := seen.rowEntry(b, b.Row(i))
			if !added {
				continue
			}
			t := seen.tups[e]
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

// joinBuild is the materialised build side of a hash join: the build
// tuples in a hashTable keyed on the join's build columns, with each entry's
// multiplicity.  Once built it is read-only, which is what lets a parallel
// join build it once and share it across the gang's probe workers.
type joinBuild struct {
	keys   *hashTable
	counts []uint64
	// built counts the tuple occurrences the build holds.
	built uint64
}

// hashJoinNode executes an equi-join: the build side is materialised into a
// joinBuild, the probe side streams batch-wise.  The planner chooses the
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

// buildTable streams the build side into a fresh joinBuild chunk by chunk,
// charging every held tuple to the query's memory gauge and the held tuples
// to the operator's state.
func (j *hashJoinNode) buildTable(ctx *execCtx) (*joinBuild, error) {
	build, buildCols := j.buildSide()
	jb := &joinBuild{keys: newHashTable(buildCols)}
	err := ctx.run(build, func(b *Batch) error {
		n := b.Len()
		for i := 0; i < n; i++ {
			r := b.Row(i)
			t := b.TupleAt(r)
			if err := ctx.chargeTuple(t); err != nil {
				return err
			}
			jb.keys.insert(t)
			jb.counts = append(jb.counts, b.Counts[r])
			jb.built += b.Counts[r]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ctx.materialised(j, jb.built)
	return jb, nil
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
	jb := ctx.sharedBuild(j)
	if jb == nil {
		var err error
		jb, err = j.buildTable(ctx)
		if err != nil {
			return err
		}
	}
	probe, probeCols := j.probeSide()
	keys := jb.keys
	if keys.len() == 0 {
		// An empty build side makes the join empty: skip hashing and probing.
		// The probe side still runs (discarding its output) because the
		// algebra is strict — errors in the probe subtree must surface even
		// when no tuple could join.
		return ctx.run(probe, discard)
	}

	build, _ := j.buildSide()
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
	err := ctx.run(probe, func(b *Batch) error {
		n := b.Len()
		for i := 0; i < n; i++ {
			r := b.Row(i)
			h := hashRow(b, r, probeCols)
			for e := keys.nextRow(keys.chain(h), b, r, probeCols); e >= 0; e = keys.nextRow(keys.next[e], b, r, probeCols) {
				bt := keys.tups[e]
				for c := 0; c < probeArity; c++ {
					cols[po+c] = append(cols[po+c], b.at(r, c))
				}
				for c := 0; c < buildArity; c++ {
					cols[bo+c] = append(cols[bo+c], bt.At(c))
				}
				out.Counts = append(out.Counts, b.Counts[r]*jb.counts[e])
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
// in row by row off whichever view they carry (groupTable.addBatch), and
// charges the group count to the operator's state.
func (a *hashAggNode) buildGroups(ctx *execCtx) (*groupTable, error) {
	groups := newGroupTable(a.gb, ctx.mem)
	err := ctx.run(a.input, groups.addBatch)
	// The operator's state is one entry per group (aggregates fold in place),
	// not the consumed input.
	ctx.materialised(a, uint64(groups.len()))
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
// Difference and intersection
// ---------------------------------------------------------------------------

// differenceNode is the multi-set difference ∸, (R ∸ S)(t) = max(0, R(t) −
// S(t)) (Definition 3.1): S is built into a counted table and R streams past
// it.
type differenceNode struct {
	base
	left, right Node
}

func (d *differenceNode) Children() []Node { return []Node{d.left, d.right} }
func (d *differenceNode) Describe() string { return "Difference" }

// run builds S first.  With nothing to subtract, R passes through unchanged.
func (d *differenceNode) run(ctx *execCtx, emit EmitBatch) error {
	cb, err := buildCounted(ctx, d, d.right)
	if err != nil {
		return err
	}
	if cb.keys.len() == 0 {
		return ctx.run(d.left, emit)
	}
	return cb.probe(ctx, d.left, true, emit)
}

// intersectNode is the multi-set intersection ∩, (R ∩ S)(t) = min(R(t), S(t))
// (Definition 3.2): the side with the smaller estimate is built into a
// counted table, as the hash join chooses, and the other streams past it.
type intersectNode struct {
	base
	left, right Node
	// buildLeft selects the build side; the probe side is the other operand.
	buildLeft bool
}

func (i *intersectNode) Children() []Node { return []Node{i.left, i.right} }

func (i *intersectNode) Describe() string {
	if i.buildLeft {
		return "Intersect build=left"
	}
	return "Intersect build=right"
}

// run builds first.  An empty build side makes the intersection empty, but
// the probe side still runs, discarding its output, because the algebra is
// strict: its errors must surface.
func (i *intersectNode) run(ctx *execCtx, emit EmitBatch) error {
	build, probe := i.right, i.left
	if i.buildLeft {
		build, probe = i.left, i.right
	}
	cb, err := buildCounted(ctx, i, build)
	if err != nil {
		return err
	}
	if cb.keys.len() == 0 {
		return ctx.run(probe, discard)
	}
	return cb.probe(ctx, probe, false, emit)
}

// countedBuild is the build side of ∸ and ∩: each distinct tuple of the
// operand once, in a hashTable keyed on every column, with the occurrences
// it has left to match.
type countedBuild struct {
	keys *hashTable
	left []uint64
}

// buildCounted streams an operand into a fresh countedBuild, summing the
// multiplicities of equal rows into one entry.  The gauge is charged once
// per distinct tuple, and op's materialised state is the occurrences held.
func buildCounted(ctx *execCtx, op, build Node) (*countedBuild, error) {
	cb := &countedBuild{keys: newHashTable(allCols(build.Schema().Arity()))}
	var held uint64
	err := ctx.run(build, func(b *Batch) error {
		n := b.Len()
		for i := 0; i < n; i++ {
			r := b.Row(i)
			m := b.Counts[r]
			held += m
			e, added := cb.keys.rowEntry(b, r)
			if !added {
				cb.left[e] += m
				continue
			}
			cb.left = append(cb.left, m)
			if err := ctx.chargeTuple(cb.keys.tups[e]); err != nil {
				return err
			}
		}
		return nil
	})
	ctx.materialised(op, held)
	return cb, err
}

// probe streams an operand past the build.  A live row of multiplicity m
// whose entry has r occurrences left — an absent row has r = 0 — matches
// min(m, r) of them, and r drops by as many; ∸ (monus) emits the m − min(m, r)
// occurrences left unmatched and ∩ the min(m, r) matched.  Since every
// occurrence of a tuple draws on one shared count, the total emitted per
// tuple does not depend on the order in which rows or batches arrive.  Each
// input batch is emitted with the operator's own counts and a narrowed
// selection, sharing its tuples or columns; the input's counts are never
// written, since a scan hands out its arena's slices.
func (cb *countedBuild) probe(ctx *execCtx, probe Node, monus bool, emit EmitBatch) error {
	cols := cb.keys.cols
	var out Batch
	var counts []uint64
	var sel []int32
	return ctx.run(probe, func(b *Batch) error {
		if cap(counts) < b.rows() {
			counts = make([]uint64, b.rows())
		}
		counts, sel = counts[:b.rows()], sel[:0]
		n := b.Len()
		for i := 0; i < n; i++ {
			r := b.Row(i)
			m := b.Counts[r]
			var matched uint64
			if e := cb.keys.nextRow(cb.keys.chain(hashRow(b, r, cols)), b, r, cols); e >= 0 {
				matched = min(m, cb.left[e])
				cb.left[e] -= matched
			}
			if monus {
				m -= matched
			} else {
				m = matched
			}
			if m > 0 {
				counts[r] = m
				sel = append(sel, int32(r))
			}
		}
		if len(sel) == 0 {
			return nil
		}
		out = Batch{Tuples: b.Tuples, Counts: counts, Cols: b.Cols, Sel: sel}
		return emit(&out)
	})
}

// ---------------------------------------------------------------------------
// Transitive closure
// ---------------------------------------------------------------------------

// tcloseNode is the transitive-closure extension of Section 5: the smallest
// transitively closed relation containing δE, by semi-naive fixpoint.  The
// result is duplicate-free (closure is a set-level notion).
type tcloseNode struct {
	base
	input Node
}

func (t *tcloseNode) Children() []Node { return []Node{t.input} }
func (t *tcloseNode) Describe() string { return "TClose" }

// run streams the input into the closure set — a hashTable keyed on both
// columns, so duplicates collapse on the way in — and into a successor index
// keyed on %1 over the same tuples.  The pairs each round adds sit at the end
// of the set, so round k's Δ is the range of entries it appended: every pair
// of Δ probes the successor index with its %2, and a candidate pair the set
// does not hold enters it, and so the next Δ.  The fixpoint polls the query
// context once per round and once per DefaultBatchSize candidate pairs, and
// charges each distinct input pair and each derived pair to the gauge once.
func (t *tcloseNode) run(ctx *execCtx, emit EmitBatch) error {
	pairCols, srcCol, dstCol := []int{0, 1}, []int{0}, []int{1}
	set, succ := newHashTable(pairCols), newHashTable(srcCol)
	var held uint64
	err := ctx.run(t.input, func(b *Batch) error {
		n := b.Len()
		for i := 0; i < n; i++ {
			r := b.Row(i)
			held += b.Counts[r]
			e, added := set.rowEntry(b, r)
			if !added {
				continue
			}
			succ.insert(set.tups[e])
			if err := ctx.chargeTuple(set.tups[e]); err != nil {
				return err
			}
		}
		return nil
	})
	ctx.materialised(t, held)
	if err != nil {
		return err
	}
	cand := make([]value.Value, 2)
	work := 0
	for lo, hi := 0, set.len(); lo < hi; lo, hi = hi, set.len() {
		if err := ctx.poll(); err != nil {
			return err
		}
		for d := lo; d < hi; d++ {
			pair := set.tups[d]
			sh := pair.HashOn(dstCol)
			for e := succ.nextTuple(succ.chain(sh), pair, dstCol); e >= 0; e = succ.nextTuple(succ.next[e], pair, dstCol) {
				if work++; work%DefaultBatchSize == 0 {
					if err := ctx.poll(); err != nil {
						return err
					}
				}
				cand[0], cand[1] = pair.At(0), succ.tups[e].At(1)
				probe := tuple.FromSlice(cand)
				h := probe.Hash()
				head := set.chain(h)
				if set.nextTuple(head, probe, pairCols) >= 0 {
					continue
				}
				derived := tuple.New(cand...)
				if err := ctx.chargeTuple(derived); err != nil {
					return err
				}
				set.add(h, head, derived)
			}
		}
	}
	w := newBatchWriter(ctx, emit)
	for _, pair := range set.tups {
		if err := w.push(pair, 1); err != nil {
			return err
		}
	}
	return w.flush()
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

// discard consumes a stream without keeping anything; joins and ∩ use it to
// run a side whose output cannot contribute but whose errors must still
// surface.
func discard(*Batch) error { return nil }

// colList renders 0-based column positions in the 1-based %i surface syntax.
func colList(cols []int) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = "%" + strconv.Itoa(c+1)
	}
	return strings.Join(parts, ", ")
}
