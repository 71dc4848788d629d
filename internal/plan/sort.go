package plan

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mra/internal/algebra"
	"mra/internal/multiset"
	"mra/internal/tuple"
)

// SortKey is one ordering key of a Sort operator: a 0-based attribute
// position in the operator's input schema and a direction.
type SortKey struct {
	// Col is the 0-based attribute position.
	Col int
	// Desc orders descending when set.
	Desc bool
}

// compareKeys orders two tuples by the key list, breaking ties with the full
// canonical tuple order so sorted output is deterministic however the input
// stream (or the parallel gang that produced it) was scheduled.
func compareKeys(keys []SortKey, a, b tuple.Tuple) int {
	for _, k := range keys {
		c := a.At(k.Col).Compare(b.At(k.Col))
		if c == 0 {
			continue
		}
		if k.Desc {
			return -c
		}
		return c
	}
	return a.Compare(b)
}

// sortNode is the Sort physical operator: a blocking operator that
// materialises its input and emits the chunks in key order.  Relations are
// unordered, so Sort exists purely for presentation — the ORDER BY path of
// the SQL front-end plans it as the root operator and consumes the root
// stream in emission order.
type sortNode struct {
	base
	keys  []SortKey
	input Node
}

func (s *sortNode) Children() []Node { return []Node{s.input} }

func (s *sortNode) Describe() string {
	parts := make([]string, len(s.keys))
	for i, k := range s.keys {
		parts[i] = "%" + strconv.Itoa(k.Col+1)
		if k.Desc {
			parts[i] += " desc"
		}
	}
	return "Sort [" + strings.Join(parts, ", ") + "]"
}

func (s *sortNode) run(ctx *execCtx, emit EmitBatch) error {
	in := multiset.NewWithCapacity(s.input.Schema(), capacityFor(s.input.meta().capHint))
	if err := ctx.collect(s.input, in); err != nil {
		return err
	}
	ctx.materialised(s, in.Cardinality())
	type chunk struct {
		tup   tuple.Tuple
		count uint64
	}
	chunks := make([]chunk, 0, in.DistinctCount())
	var memErr error
	in.Each(func(t tuple.Tuple, n uint64) bool {
		if memErr = ctx.chargeTuple(t); memErr != nil {
			return false
		}
		chunks = append(chunks, chunk{tup: t, count: n})
		return true
	})
	if memErr != nil {
		return memErr
	}
	if err := ctx.poll(); err != nil {
		return err
	}
	sort.Slice(chunks, func(i, j int) bool { return compareKeys(s.keys, chunks[i].tup, chunks[j].tup) < 0 })
	w := newBatchWriter(ctx, emit)
	for _, c := range chunks {
		if err := w.push(c.tup, c.count); err != nil {
			return err
		}
	}
	return w.flush()
}

// PlanOrdered is Plan with sort keys: when there are any, it roots the plan
// with a Sort operator over them, which must address the expression's output
// schema.  The plan's root stream then emits in key order; ExecuteOrdered
// captures that order.
func (pl *Planner) PlanOrdered(e algebra.Expr, cat algebra.Catalog, keys []SortKey) (*Plan, error) {
	root, err := pl.compile(e, cat)
	if err != nil {
		return nil, err
	}
	root = pl.parallelize(root)
	for _, k := range keys {
		if k.Col < 0 || k.Col >= root.Schema().Arity() {
			return nil, fmt.Errorf("plan: sort key %%%d out of range for arity %d", k.Col+1, root.Schema().Arity())
		}
	}
	if len(keys) > 0 {
		s := &sortNode{keys: keys, input: root}
		s.schema = root.Schema()
		s.est = root.Estimate()
		s.exactEst = root.meta().exactEst
		s.capHint = root.meta().capHint
		root = s
	}
	p := &Plan{Root: root, nodes: make([]Node, 0, 8), batchSize: pl.BatchSize, memLimit: pl.MemoryLimit}
	number(root, &p.nodes)
	return p, nil
}

// ExecuteOrdered runs the plan and returns its occurrences in key order — a
// tuple with multiplicity k appears k times consecutively — together with the
// result relation.  A plan without a Sort root (PlanOrdered without keys, or
// Plan) has no order: it runs exactly like ExecuteStats and the order is nil.
// st, when non-nil, accumulates per-operator statistics as in ExecuteStats.
func (p *Plan) ExecuteOrdered(src Source, st *Stats) ([]tuple.Tuple, *multiset.Relation, error) {
	return p.ExecuteOrderedContext(context.Background(), src, st)
}

// ExecuteOrderedContext is ExecuteOrdered under a lifecycle context, polled at
// the same amortised checkpoints as ExecuteContext.
func (p *Plan) ExecuteOrderedContext(qctx context.Context, src Source, st *Stats) ([]tuple.Tuple, *multiset.Relation, error) {
	if _, sorted := p.Root.(*sortNode); !sorted {
		rel, err := p.exec(qctx, src, st)
		return nil, rel, err
	}
	ctx := p.newExecCtx(qctx, src, st)
	if err := ctx.poll(); err != nil {
		return nil, nil, err
	}
	out := multiset.NewWithCapacity(p.Root.Schema(), capacityFor(p.Root.meta().capHint))
	var ordered []tuple.Tuple
	occur := func(t tuple.Tuple, n uint64) error {
		out.Add(t, n)
		for i := uint64(0); i < n; i++ {
			ordered = append(ordered, t)
		}
		return nil
	}
	err := ctx.run(p.Root, func(b *Batch) error {
		if err := ctx.poll(); err != nil {
			return err
		}
		return b.forEach(occur)
	})
	if st != nil {
		st.PerOperator = append(st.PerOperator, ctx.perOp...)
	}
	if err != nil {
		return nil, nil, err
	}
	return ordered, out, nil
}
