package plan

import (
	"fmt"

	"mra/internal/algebra"
	"mra/internal/scalar"
	"mra/internal/schema"
	"mra/internal/value"
)

// Planner compiles logical expressions into physical plans.  All physical
// decisions are made here, at plan time, from the cost model's cardinality
// estimates:
//
//   - σφ(E1 × E2) and σφ(E1 ⋈ E2) fold their conditions into the join
//     (Theorem 3.1 read right-to-left), so equality conjuncts from either
//     level can hash;
//   - joins with hashable conjuncts become HashJoins, with the build side
//     chosen as the operand of smaller estimated cardinality (the physical
//     commutation the algebra's join commutativity licenses);
//   - joins without hashable conjuncts, and bare products, become
//     NestedLoopJoins with the smaller estimated operand materialised as the
//     inner side;
//   - everything pipelineable (σ, π, extended π, ⊎, δ) compiles to streaming
//     operators, so cascades execute in one pass with no intermediate
//     relations.
type Planner struct {
	// Cards is the source the plan will scan: every base-relation fact the
	// cost model uses — cardinality, distinct count, key column — is read off
	// the instance it returns, and ANALYZE summaries come from its optional
	// TableStats method.  Nil falls back to the cost model's defaults.
	Cards Source
	// Workers is the parallelism degree of compiled plans.  At or below 1
	// (including the zero value) plans are serial and no exchange operators
	// are inserted; above 1 the planner wraps eligible shapes — streaming
	// pipelines, hash joins, grouped hash aggregates — in Partition/Merge
	// exchanges (exchange.go) when their estimated input cardinality exceeds
	// ParallelThreshold.
	Workers int
	// ParallelThreshold overrides DefaultParallelThreshold when positive: the
	// estimated input cardinality below which a shape stays serial.
	ParallelThreshold float64
	// MorselSize overrides the cost model's per-scan morsel sizing when
	// positive: every morsel partition of compiled plans claims entry ranges
	// of exactly this size.  At zero the planner sizes each scan's morsels
	// from its estimated distinct count and the gang width (morselSizeFor).
	MorselSize int
	// BatchSize overrides DefaultBatchSize when positive: the number of
	// chunks per emitted batch in compiled plans.
	BatchSize int
	// MemoryLimit bounds, in bytes, the operator-internal state one execution
	// of a compiled plan may hold — hash-join build tables, group tables,
	// Sort and nested-loop materialisations, the operand relations of the
	// blocking set operators, Unique's seen set.  Executions
	// that would exceed it fail with an error wrapping ErrMemoryBudget.  Zero
	// (the default) disables enforcement.
	MemoryLimit int64
}

// NewPlanner returns a serial planner drawing base-relation facts from src
// (which may be nil).
func NewPlanner(src Source) *Planner { return &Planner{Cards: src} }

// Plan compiles the expression against the catalog.  Operator typing (schema
// inference, condition and arithmetic validation) happens here; execution
// assumes a well-typed plan.
func (pl *Planner) Plan(e algebra.Expr, cat algebra.Catalog) (*Plan, error) {
	return pl.PlanOrdered(e, cat, nil)
}

// number assigns pre-order ids used by the per-operator statistics.
func number(n Node, nodes *[]Node) {
	n.meta().id = len(*nodes)
	*nodes = append(*nodes, n)
	for _, c := range n.Children() {
		number(c, nodes)
	}
}

// schemaExpr is a pre-resolved algebra leaf standing in for an already
// compiled subtree, so operator typing can reuse the algebra package's
// Schema validation against the child's known schema without re-walking the
// logical tree.  Only Schema is ever called; Children and String exist
// because algebra.Expr requires them.
type schemaExpr struct{ s schema.Relation }

func (f schemaExpr) Schema(algebra.Catalog) (schema.Relation, error) { return f.s, nil }
func (f schemaExpr) Children() []algebra.Expr                        { return nil }
func (f schemaExpr) String() string                                  { return "·" }

func (pl *Planner) compile(e algebra.Expr, cat algebra.Catalog) (Node, error) {
	switch n := e.(type) {
	case algebra.Rel:
		if cat == nil {
			return nil, fmt.Errorf("plan: no catalog to resolve relation %q", n.Name)
		}
		s, ok := cat.RelationSchema(n.Name)
		if !ok {
			return nil, fmt.Errorf("plan: unknown relation %q", n.Name)
		}
		node := &scanNode{name: n.Name, key: -1}
		node.schema = s
		node.est = defaultRelationCard
		node.capHint = node.est
		if pl.Cards != nil {
			if r, ok := pl.Cards.Relation(n.Name); ok {
				node.est = float64(r.Cardinality())
				node.exactEst = true
				node.capHint = float64(r.DistinctCount())
				node.ndvHint = node.capHint
				if key, ok := r.KeyColumn(); ok {
					node.key = key
				}
			}
		}
		node.colStats = pl.scanColStats(n.Name, s.Arity())
		return node, nil

	case algebra.Literal:
		s, err := n.Schema(cat)
		if err != nil {
			return nil, err
		}
		node := &valuesNode{rows: n.Rows}
		node.schema = s
		node.est = float64(len(n.Rows))
		node.exactEst = true
		node.capHint = node.est
		return node, nil

	case algebra.Select:
		if n.Cond == nil {
			return nil, fmt.Errorf("%w: select without a condition", algebra.ErrPlan)
		}
		// A selection directly above a product or join is a join in disguise:
		// fold the condition in so its equality conjuncts can hash.
		switch in := n.Input.(type) {
		case algebra.Product:
			return pl.compileJoin(n.Cond, in.Left, in.Right, cat)
		case algebra.Join:
			if in.Cond == nil {
				return nil, fmt.Errorf("%w: join without a condition", algebra.ErrPlan)
			}
			return pl.compileJoin(scalar.And{Left: in.Cond, Right: n.Cond}, in.Left, in.Right, cat)
		}
		input, err := pl.compile(n.Input, cat)
		if err != nil {
			return nil, err
		}
		if err := n.Cond.Validate(input.Schema()); err != nil {
			return nil, fmt.Errorf("%w: %v", algebra.ErrPlan, err)
		}
		return pl.makeFilter(n.Cond, input), nil

	case algebra.Project:
		input, err := pl.compile(n.Input, cat)
		if err != nil {
			return nil, err
		}
		if len(n.Columns) == 0 {
			return nil, fmt.Errorf("%w: projection with an empty attribute list", algebra.ErrPlan)
		}
		s, err := input.Schema().Project(n.Columns)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", algebra.ErrPlan, err)
		}
		node := &projectNode{cols: n.Columns, input: input}
		node.schema = s
		node.est = input.Estimate()
		node.capHint = input.meta().capHint
		if in := input.meta().colStats; in != nil {
			cs := make([]colStat, len(n.Columns))
			for i, c := range n.Columns {
				if c >= 0 && c < len(in) {
					cs[i] = in[c]
				}
			}
			node.colStats = cs
		}
		return node, nil

	case algebra.ExtProject:
		input, err := pl.compile(n.Input, cat)
		if err != nil {
			return nil, err
		}
		s, err := algebra.NewExtProject(n.Items, n.Names, schemaExpr{input.Schema()}).Schema(nil)
		if err != nil {
			return nil, err
		}
		node := &extProjectNode{items: n.Items, input: input}
		node.schema = s
		node.est = input.Estimate()
		node.capHint = input.meta().capHint
		if in := input.meta().colStats; in != nil {
			cs := make([]colStat, len(n.Items))
			for i, item := range n.Items {
				if a, ok := item.(scalar.Attr); ok && a.Index >= 0 && a.Index < len(in) {
					cs[i] = in[a.Index]
				}
			}
			node.colStats = cs
		}
		return node, nil

	case algebra.Product:
		return pl.compileJoin(nil, n.Left, n.Right, cat)

	case algebra.Join:
		if n.Cond == nil {
			return nil, fmt.Errorf("%w: join without a condition", algebra.ErrPlan)
		}
		return pl.compileJoin(n.Cond, n.Left, n.Right, cat)

	case algebra.Union:
		left, right, s, err := pl.compilePair("union", n.Left, n.Right, cat)
		if err != nil {
			return nil, err
		}
		node := &unionNode{left: left, right: right}
		node.schema = s
		node.est = left.Estimate() + right.Estimate()
		node.capHint = left.meta().capHint + right.meta().capHint
		return node, nil

	case algebra.Difference:
		left, right, s, err := pl.compilePair("diff", n.Left, n.Right, cat)
		if err != nil {
			return nil, err
		}
		node := &differenceNode{left: left, right: right}
		node.schema = s
		node.est = left.Estimate()
		node.capHint = node.est
		return node, nil

	case algebra.Intersect:
		left, right, s, err := pl.compilePair("intersect", n.Left, n.Right, cat)
		if err != nil {
			return nil, err
		}
		node := &intersectNode{left: left, right: right}
		node.schema = s
		node.est = min(left.Estimate(), right.Estimate())
		node.capHint = node.est
		return node, nil

	case algebra.Unique:
		input, err := pl.compile(n.Input, cat)
		if err != nil {
			return nil, err
		}
		node := &uniqueNode{input: input}
		node.schema = input.Schema()
		node.est = input.Estimate() * uniqueReduction
		node.capHint = input.meta().capHint
		node.colStats = clampCols(append([]colStat(nil), input.meta().colStats...), node.est)
		return node, nil

	case algebra.GroupBy:
		input, err := pl.compile(n.Input, cat)
		if err != nil {
			return nil, err
		}
		gb := n
		gb.Input = schemaExpr{input.Schema()}
		s, err := gb.Schema(nil)
		if err != nil {
			return nil, err
		}
		node := &hashAggNode{gb: groupSpec{groupCols: n.GroupCols, aggs: n.Aggs, outSchema: s}, input: input}
		node.schema = s
		node.est = input.Estimate() * groupReduction
		if len(n.GroupCols) == 0 {
			node.est = 1
		}
		node.capHint = node.est
		// Pre-aggregation reduction estimate: a group is a distinct projection
		// of the input, so the input's distinct-tuple hint (the scanned
		// instance's DistinctCount for base scans) bounds the group count.
		// The hint sizes the group table and drives the exchange pass's
		// choice between a two-phase parallel and a serial aggregate.
		if hint := input.meta().capHint; hint > 0 {
			if len(n.GroupCols) >= input.Schema().Arity() {
				// Grouping on every attribute: groups are exactly the distinct
				// input tuples — no pre-aggregation reduction at all.
				node.capHint = hint
			} else if node.capHint > hint {
				node.capHint = hint
			}
		}
		// Per-column statistics sharpen the hint further: the group count is
		// at most the product of the grouping columns' distinct-value
		// estimates (and at least informative when that product is large —
		// high-cardinality groupings gain nothing from a partial phase, which
		// is exactly what twoPhaseProfitable needs to see).
		if len(n.GroupCols) > 0 {
			if hint, ok := groupCapHint(n.GroupCols, input.meta().colStats); ok {
				if hint > input.Estimate() {
					hint = input.Estimate()
				}
				node.capHint = hint
				node.est = hint
			}
		}
		if in := input.meta().colStats; in != nil {
			cs := make([]colStat, s.Arity())
			for i, gc := range n.GroupCols {
				if i < len(cs) && gc >= 0 && gc < len(in) {
					cs[i] = in[gc]
				}
			}
			node.colStats = clampCols(cs, node.est)
		}
		return node, nil

	case algebra.TClose:
		input, err := pl.compile(n.Input, cat)
		if err != nil {
			return nil, err
		}
		s, err := algebra.NewTClose(schemaExpr{input.Schema()}).Schema(nil)
		if err != nil {
			return nil, err
		}
		node := &tcloseNode{input: input}
		node.schema = s
		node.est = input.Estimate() * transitiveBlowup
		node.capHint = node.est
		return node, nil

	default:
		return nil, fmt.Errorf("plan: unsupported expression %T", e)
	}
}

// compilePair compiles the operands of a union-compatible binary operator and
// checks their compatibility.
func (pl *Planner) compilePair(op string, le, re algebra.Expr, cat algebra.Catalog) (left, right Node, s schema.Relation, err error) {
	left, err = pl.compile(le, cat)
	if err != nil {
		return nil, nil, schema.Relation{}, err
	}
	right, err = pl.compile(re, cat)
	if err != nil {
		return nil, nil, schema.Relation{}, err
	}
	if !left.Schema().Compatible(right.Schema()) {
		return nil, nil, schema.Relation{},
			fmt.Errorf("plan: %s applied to incompatible schemas %s and %s", op, left.Schema(), right.Schema())
	}
	return left, right, left.Schema(), nil
}

// compileJoin plans E1 ⋈φ E2 (and σφ(E1 × E2), which is the same thing by
// Theorem 3.1).  A nil condition is a bare Cartesian product.  The
// cost-based enumerator (joinorder.go) plans every join tree it can: it
// pushes single-leaf conjuncts into their leaf and searches for the cheapest
// order.  The written order is the fallback for trees too large to
// enumerate.
func (pl *Planner) compileJoin(cond scalar.Predicate, le, re algebra.Expr, cat algebra.Catalog) (Node, error) {
	if node, ok, err := pl.enumerateJoinOrder(cond, le, re, cat); err != nil {
		return nil, err
	} else if ok {
		return node, nil
	}
	left, err := pl.compile(le, cat)
	if err != nil {
		return nil, err
	}
	right, err := pl.compile(re, cat)
	if err != nil {
		return nil, err
	}
	return pl.makeJoin(cond, left, right)
}

// makeFilter builds a selection node over a compiled input, estimating its
// selectivity from the input's column statistics when available.  Over a
// scan whose key column the condition pins, the filter reads through a key
// lookup instead.
func (pl *Planner) makeFilter(cond scalar.Predicate, input Node) *filterNode {
	node := &filterNode{pred: cond, input: input}
	node.schema = input.Schema()
	sel, known := predSelectivity(cond, input.meta().colStats)
	if !known {
		sel = selectionSelectivity
	}
	node.est = input.Estimate() * sel
	node.capHint = node.est
	node.colStats = clampCols(append([]colStat(nil), input.meta().colStats...), node.est)
	if scan, ok := input.(*scanNode); ok {
		if ix := indexScan(scan, cond); ix != nil {
			node.input = ix
		}
	}
	return node
}

// indexScan returns the key lookup that can stand in for a scan under the
// selection cond, or nil.  It needs a conjunct "%c = constant" (either way
// round) on the key column of the instance the scan was planned from, and only
// error-free conjuncts before it.  The Filter above keeps the whole
// predicate and evaluates it conjunct by conjunct on the rows the lookup
// yields — every row whose key satisfies the equality, because σ is
// pointwise on multiplicities — so the bag is the scan's.  A conjunct that
// could fail to evaluate must not come first: the scan would evaluate it on
// rows the lookup never yields.
func indexScan(scan *scanNode, cond scalar.Predicate) Node {
	if scan.key < 0 {
		return nil
	}
	for _, c := range scalar.Conjuncts(cond) {
		if cmp, ok := c.(scalar.Compare); ok {
			if attr, k, op, ok := normaliseCompare(cmp); ok && op == value.CmpEq && attr.Index == scan.key {
				node := &indexScanNode{name: scan.name, col: scan.key, val: k}
				node.schema = scan.schema
				sel, known := compareSelectivity(cmp, scan.colStats)
				if !known {
					sel = selectionSelectivity
				}
				node.est = scan.est * sel
				node.capHint = node.est
				node.colStats = clampCols(append([]colStat(nil), scan.colStats...), node.est)
				return node
			}
		}
		if !errorFree(c) {
			return nil
		}
	}
	return nil
}

// errorFree reports whether a predicate evaluates without error on every
// tuple of the schema it was validated against: comparisons between
// attributes and constants, and connectives over them.  Arithmetic can fail
// (division by zero, overflow), so any other shape counts as fallible.
func errorFree(p scalar.Predicate) bool {
	switch x := p.(type) {
	case scalar.True, scalar.False:
		return true
	case scalar.Compare:
		return plainOperand(x.Left) && plainOperand(x.Right)
	case scalar.And:
		return errorFree(x.Left) && errorFree(x.Right)
	case scalar.Or:
		return errorFree(x.Left) && errorFree(x.Right)
	case scalar.Not:
		return errorFree(x.Operand)
	default:
		return false
	}
}

// plainOperand reports whether a scalar expression is an attribute or a
// constant.
func plainOperand(e scalar.Expr) bool {
	switch e.(type) {
	case scalar.Attr, scalar.Const:
		return true
	default:
		return false
	}
}

// makeJoin builds the physical join of two compiled operands under the given
// condition (nil for a bare product): a hash join when an equality conjunct
// links the sides, nested loops otherwise.  Build side, output estimate, and
// capacity hints come from the operands' statistics.
func (pl *Planner) makeJoin(cond scalar.Predicate, left, right Node) (Node, error) {
	outSchema := left.Schema().Concat(right.Schema())
	outCols := concatCols(left.meta().colStats, right.meta().colStats)

	if cond == nil {
		node := &nestedLoopNode{left: left, right: right, innerRight: right.Estimate() <= left.Estimate()}
		node.schema = outSchema
		node.est = left.Estimate() * right.Estimate()
		node.capHint = node.est
		node.colStats = clampCols(outCols, node.est)
		return node, nil
	}
	if err := cond.Validate(outSchema); err != nil {
		return nil, fmt.Errorf("plan: %v", err)
	}

	leftCols, rightCols, residual := equiCols(cond, left.Schema().Arity())
	sel := joinPairSelectivity(leftCols, rightCols, left.meta().colStats, right.meta().colStats)
	est := left.Estimate() * right.Estimate() * sel
	if len(leftCols) == 0 {
		node := &nestedLoopNode{left: left, right: right, cond: cond, innerRight: right.Estimate() <= left.Estimate()}
		node.schema = outSchema
		node.est = est
		node.capHint = est
		node.colStats = clampCols(outCols, node.est)
		return node, nil
	}
	node := &hashJoinNode{
		left:      left,
		right:     right,
		leftCols:  leftCols,
		rightCols: rightCols,
		buildLeft: left.Estimate() < right.Estimate(),
	}
	if len(residual) > 0 {
		node.residual = scalar.NewAnd(residual...)
	}
	node.schema = outSchema
	node.est = est
	// Size the join output by its probe side — the classic one-match-per-probe
	// heuristic — rather than by the selectivity-based estimate, which can be
	// off by the full key-range factor.
	probe := right
	if !node.buildLeft {
		probe = left
	}
	node.capHint = probe.meta().capHint
	node.colStats = clampCols(outCols, node.est)
	return node, nil
}

// equiCols extracts from a join condition the pairs of attribute positions
// (left input position, right input position) connected by top-level equality
// conjuncts, plus the residual conjuncts that still need per-pair evaluation.
// leftArity is the arity of the left operand; positions ≥ leftArity address
// the right operand in the concatenated schema.
func equiCols(cond scalar.Predicate, leftArity int) (leftCols, rightCols []int, residual []scalar.Predicate) {
	for _, c := range scalar.Conjuncts(cond) {
		cmp, ok := c.(scalar.Compare)
		if !ok || cmp.Op != value.CmpEq {
			residual = append(residual, c)
			continue
		}
		la, lok := cmp.Left.(scalar.Attr)
		ra, rok := cmp.Right.(scalar.Attr)
		if !lok || !rok {
			residual = append(residual, c)
			continue
		}
		switch {
		case la.Index < leftArity && ra.Index >= leftArity:
			leftCols = append(leftCols, la.Index)
			rightCols = append(rightCols, ra.Index-leftArity)
		case ra.Index < leftArity && la.Index >= leftArity:
			leftCols = append(leftCols, ra.Index)
			rightCols = append(rightCols, la.Index-leftArity)
		default:
			residual = append(residual, c)
		}
	}
	return leftCols, rightCols, residual
}
