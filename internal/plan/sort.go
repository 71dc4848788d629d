package plan

import (
	"fmt"
	"math"
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

// Clause is a SQL query's presentation clause: ORDER BY, OFFSET and LIMIT.
// The multi-set algebra is unordered, so the clause has no expression
// counterpart; a plan executes it as one Sort operator at its root.
type Clause struct {
	// Order lists the sort keys, outermost first: 0-based positions in the
	// query's output schema with a direction each.
	Order []SortKey
	// Offset skips the first Offset occurrences of the ordered result.
	Offset uint64
	// Limit caps the number of occurrences presented.
	Limit uint64
	// HasLimit reports whether the clause has a LIMIT.
	HasLimit bool
	// Hidden is the number of trailing hidden sort columns the SQL
	// translator appended to the query's projection so ORDER BY could
	// reference expressions that are not output columns.  The Sort orders
	// on them and emits only the columns before them.
	Hidden int
}

// Active reports whether the clause changes the result presentation.
func (c Clause) Active() bool {
	return len(c.Order) > 0 || c.HasLimit || c.Offset > 0 || c.Hidden > 0
}

// Run is one counted run of an ordered result: Count consecutive occurrences
// of Tuple.  A Sort root's runs, in emission order, are the presentation
// order of its plan's result.
type Run struct {
	// Tuple is the run's tuple.
	Tuple tuple.Tuple
	// Count is the number of occurrences in the run.
	Count uint64
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

// sortNode is the Sort physical operator, which executes a whole presentation
// clause: a blocking operator that materialises its input, orders the
// distinct chunks by the keys (canonical order when there are none), cuts
// the OFFSET/LIMIT window by subtracting counts, and emits the surviving runs
// without the hidden columns.  Relations are unordered, so Sort exists purely
// for presentation: it roots the plan, and it records the runs it emits in
// the execution context, which the result sink returns as the order.  No
// step loops over occurrences, so a run of 2^32 copies costs one chunk.
type sortNode struct {
	base
	clause Clause
	input  Node
}

func (s *sortNode) Children() []Node { return []Node{s.input} }

func (s *sortNode) Describe() string {
	parts := make([]string, len(s.clause.Order))
	for i, k := range s.clause.Order {
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
	chunks := make([]Run, 0, in.DistinctCount())
	var memErr error
	in.Each(func(t tuple.Tuple, n uint64) bool {
		if memErr = ctx.chargeTuple(t); memErr != nil {
			return false
		}
		chunks = append(chunks, Run{Tuple: t, Count: n})
		return true
	})
	if memErr != nil {
		return memErr
	}
	if err := ctx.poll(); err != nil {
		return err
	}
	sort.Slice(chunks, func(i, j int) bool { return compareKeys(s.clause.Order, chunks[i].Tuple, chunks[j].Tuple) < 0 })
	skip, left := s.clause.Offset, uint64(math.MaxUint64)
	if s.clause.HasLimit {
		left = s.clause.Limit
	}
	visible := s.schema.Arity()
	w := newBatchWriter(ctx, emit)
	for _, c := range chunks {
		if left == 0 {
			break
		}
		if c.Count <= skip {
			skip -= c.Count
			continue
		}
		n := min(c.Count-skip, left)
		skip, left = 0, left-n
		t := c.Tuple
		if s.clause.Hidden > 0 {
			t = tuple.FromSlice(t.Values()[:visible])
		}
		ctx.runs = append(ctx.runs, Run{Tuple: t, Count: n})
		if err := w.push(t, n); err != nil {
			return err
		}
	}
	return w.flush()
}

// PlanOrdered is Plan with a presentation clause: when the clause is active,
// it roots the plan with a Sort operator that executes it.  The keys must
// address the expression's output schema, whose trailing clause.Hidden
// columns the Sort drops.  Executing the plan through ExecuteRuns returns the
// Sort's runs as the result's order.
func (pl *Planner) PlanOrdered(e algebra.Expr, cat algebra.Catalog, clause Clause) (*Plan, error) {
	root, err := pl.compile(e, cat)
	if err != nil {
		return nil, err
	}
	root = pl.parallelize(root)
	in := root.Schema()
	if clause.Hidden < 0 || clause.Hidden > in.Arity() {
		return nil, fmt.Errorf("plan: %d hidden columns out of range for arity %d", clause.Hidden, in.Arity())
	}
	for _, k := range clause.Order {
		if k.Col < 0 || k.Col >= in.Arity() {
			return nil, fmt.Errorf("plan: sort key %%%d out of range for arity %d", k.Col+1, in.Arity())
		}
	}
	if clause.Active() {
		s := &sortNode{clause: clause, input: root}
		visible := make([]int, in.Arity()-clause.Hidden)
		for i := range visible {
			visible[i] = i
		}
		s.schema, _ = in.Project(visible)
		s.est = root.Estimate()
		s.exactEst = root.meta().exactEst && clause.Offset == 0 && !clause.HasLimit
		s.capHint = root.meta().capHint
		if clause.HasLimit {
			s.est = min(s.est, float64(clause.Limit))
			s.capHint = min(s.capHint, float64(clause.Limit))
		}
		root = s
	}
	p := &Plan{Root: root, nodes: make([]Node, 0, 8), batchSize: pl.BatchSize, memLimit: pl.MemoryLimit}
	number(root, &p.nodes)
	return p, nil
}
