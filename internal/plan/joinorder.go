package plan

import (
	"math"
	"math/bits"

	"mra/internal/algebra"
	"mra/internal/scalar"
	"mra/internal/value"
)

// This file implements the cost-based join-order enumerator: a DPsize/DPsub
// dynamic program in the style of DPccp over the flattened join tree.  The
// planner harvests a join spine (nested Join, Product, and Select-over-join
// nodes) into a set of relation-valued leaves plus a global conjunct list,
// enumerates every bushy evaluation order by subset dynamic programming with
// statistics-driven selectivities, rebuilds the cheapest order with the
// ordinary physical join constructors, and restores the written column order
// with a final projection — a pure attribute permutation, which preserves
// multiset semantics (join commutativity and associativity hold over bags,
// Theorems 3.2/3.3 of the paper).

// maxJoinOrderLeaves caps the enumerated join size: beyond it the subset
// dynamic program's 3^n split enumeration stops paying for itself and the
// planner keeps the written order.
const maxJoinOrderLeaves = 12

// joinLeaf is one relation-valued operand of a flattened join tree.
type joinLeaf struct {
	expr   algebra.Expr
	offset int // first attribute position in the written-order concatenation
	arity  int
	node   Node // compiled plan, with single-leaf conjuncts folded in
}

// joinConjunct is one conjunct of the flattened join condition.  Its
// predicate references written-order global attribute positions; mask records
// which leaves it touches.
type joinConjunct struct {
	pred scalar.Predicate
	mask uint
	sel  float64 // estimated selectivity once both sides are present
}

// enumerateJoinOrder attempts to plan σcond(le × re) as a cost-ordered join
// tree.  Every join goes through it, two-leaf ones included, so single-leaf
// conjuncts are pushed into their leaf on every join — Example 3.1 of the
// paper, σ below ⋈, is reached from the written text.  For two leaves the
// canonical split keeps leaf 0 on the left, so the written column order
// needs no permuting projection.  It returns ok=false when the join has too
// many leaves to enumerate, or a conjunct that can fail to evaluate, in which
// case the caller compiles the written order.
func (pl *Planner) enumerateJoinOrder(cond scalar.Predicate, le, re algebra.Expr, cat algebra.Catalog) (Node, bool, error) {
	n := countJoinLeaves(le) + countJoinLeaves(re)
	if n > maxJoinOrderLeaves {
		return nil, false, nil
	}

	var leaves []joinLeaf
	var conjs []scalar.Predicate
	arity, err := pl.flattenJoin(le, cat, 0, &leaves, &conjs)
	if err != nil {
		return nil, false, err
	}
	if _, err := pl.flattenJoin(re, cat, arity, &leaves, &conjs); err != nil {
		return nil, false, err
	}
	if cond != nil {
		conjs = append(conjs, scalar.Conjuncts(cond)...)
	}
	// A conjunct that can fail to evaluate (arithmetic) keeps the written
	// order: reordering or pushing any conjunct changes the rows it runs on,
	// and it would fail where the written expression returns rows, or return
	// rows where the written expression fails.
	for _, c := range conjs {
		if !scalar.ErrorFree(c) {
			return nil, false, nil
		}
	}

	// Compile every leaf in isolation.
	for i := range leaves {
		node, err := pl.compile(leaves[i].expr, cat)
		if err != nil {
			return nil, false, err
		}
		leaves[i].node = node
	}

	// Classify conjuncts: single-leaf conjuncts fold into their leaf as one
	// filter (with attribute references rebased to the leaf frame);
	// multi-leaf conjuncts become join predicates scored for the DP.
	leafOf := make([]int, arityOf(leaves))
	for i, lf := range leaves {
		for c := 0; c < lf.arity; c++ {
			leafOf[lf.offset+c] = i
		}
	}
	var joinConjs []joinConjunct
	var constPreds []scalar.Predicate
	leafConjs := make([][]scalar.Predicate, len(leaves))
	for _, c := range conjs {
		refs := c.Refs(nil)
		mask := uint(0)
		for _, r := range refs {
			if r < 0 || r >= len(leafOf) {
				return nil, false, nil
			}
			mask |= 1 << uint(leafOf[r])
		}
		switch bits.OnesCount(mask) {
		case 0:
			constPreds = append(constPreds, c)
		case 1:
			i := bits.TrailingZeros(mask)
			mapping := make(map[int]int, leaves[i].arity)
			for k := 0; k < leaves[i].arity; k++ {
				mapping[leaves[i].offset+k] = k
			}
			rebased, err := c.Rebase(mapping)
			if err != nil {
				return nil, false, err
			}
			if err := rebased.Validate(leaves[i].node.Schema()); err != nil {
				return nil, false, nil
			}
			leafConjs[i] = append(leafConjs[i], rebased)
		default:
			joinConjs = append(joinConjs, joinConjunct{pred: c, mask: mask, sel: pl.conjunctSelectivity(c, leaves, leafOf)})
		}
	}
	for i, preds := range leafConjs {
		if len(preds) > 0 {
			leaves[i].node = pl.makeFilter(scalar.NewAnd(preds...), leaves[i].node)
		}
	}

	order, err := pl.searchJoinOrder(leaves, joinConjs)
	if err != nil {
		return nil, false, err
	}
	root := order.node

	// Restore the written attribute order with a permuting projection when
	// the chosen order moved columns around.
	perm := make([]int, len(leafOf))
	pos := 0
	identity := true
	posOf := make([]int, len(leafOf))
	for _, i := range order.leaves {
		for c := 0; c < leaves[i].arity; c++ {
			posOf[leaves[i].offset+c] = pos
			if leaves[i].offset+c != pos {
				identity = false
			}
			pos++
		}
	}
	for g := range perm {
		perm[g] = posOf[g]
	}
	if !identity {
		s, err := root.Schema().Project(perm)
		if err != nil {
			return nil, false, err
		}
		node := &projectNode{cols: perm, input: root}
		node.schema = s
		node.est = root.Estimate()
		node.exactEst = root.meta().exactEst
		node.capHint = root.meta().capHint
		node.ndvHint = root.meta().ndvHint
		if in := root.meta().colStats; in != nil {
			cs := make([]colStat, len(perm))
			for i, c := range perm {
				cs[i] = in[c]
			}
			node.colStats = cs
		}
		root = node
	}
	for _, c := range constPreds {
		root = pl.makeFilter(c, root)
	}
	return root, true, nil
}

// countJoinLeaves counts the relation-valued operands of a join spine without
// resolving schemas, so a join too large to enumerate is refused cheaply.
func countJoinLeaves(e algebra.Expr) int {
	switch n := e.(type) {
	case algebra.Join:
		return countJoinLeaves(n.Left) + countJoinLeaves(n.Right)
	case algebra.Product:
		return countJoinLeaves(n.Left) + countJoinLeaves(n.Right)
	case algebra.Select:
		switch n.Input.(type) {
		case algebra.Join, algebra.Product:
			return countJoinLeaves(n.Input)
		}
		return 1
	default:
		return 1
	}
}

// flattenJoin recursively harvests a join spine into leaves and conjuncts.
// base is the attribute offset of this subtree in the written-order
// concatenation; harvested conjuncts are rebased into that global frame.
func (pl *Planner) flattenJoin(e algebra.Expr, cat algebra.Catalog, base int, leaves *[]joinLeaf, conjs *[]scalar.Predicate) (int, error) {
	appendCond := func(cond scalar.Predicate, arity int) error {
		if cond == nil {
			return nil
		}
		mapping := make(map[int]int, arity)
		for i := 0; i < arity; i++ {
			mapping[i] = base + i
		}
		rebased, err := cond.Rebase(mapping)
		if err != nil {
			return err
		}
		*conjs = append(*conjs, scalar.Conjuncts(rebased)...)
		return nil
	}
	switch n := e.(type) {
	case algebra.Join:
		la, err := pl.flattenJoin(n.Left, cat, base, leaves, conjs)
		if err != nil {
			return 0, err
		}
		ra, err := pl.flattenJoin(n.Right, cat, base+la, leaves, conjs)
		if err != nil {
			return 0, err
		}
		return la + ra, appendCond(n.Cond, la+ra)
	case algebra.Product:
		la, err := pl.flattenJoin(n.Left, cat, base, leaves, conjs)
		if err != nil {
			return 0, err
		}
		ra, err := pl.flattenJoin(n.Right, cat, base+la, leaves, conjs)
		if err != nil {
			return 0, err
		}
		return la + ra, nil
	case algebra.Select:
		switch n.Input.(type) {
		case algebra.Join, algebra.Product:
			arity, err := pl.flattenJoin(n.Input, cat, base, leaves, conjs)
			if err != nil {
				return 0, err
			}
			return arity, appendCond(n.Cond, arity)
		}
	}
	s, err := e.Schema(cat)
	if err != nil {
		return 0, err
	}
	*leaves = append(*leaves, joinLeaf{expr: e, offset: base, arity: s.Arity()})
	return s.Arity(), nil
}

// arityOf returns the total attribute count of the flattened leaves.
func arityOf(leaves []joinLeaf) int {
	total := 0
	for _, lf := range leaves {
		total += lf.arity
	}
	return total
}

// conjunctSelectivity scores one multi-leaf conjunct for the dynamic program:
// attribute equalities use 1/max(NDV) when column statistics exist on both
// sides, the flat joinSelectivity constant otherwise; non-equality conjuncts
// use the selection default.
func (pl *Planner) conjunctSelectivity(c scalar.Predicate, leaves []joinLeaf, leafOf []int) float64 {
	cmp, ok := c.(scalar.Compare)
	if !ok {
		return selectionSelectivity
	}
	la, lok := cmp.Left.(scalar.Attr)
	ra, rok := cmp.Right.(scalar.Attr)
	if !lok || !rok {
		return selectionSelectivity
	}
	if cmp.Op != value.CmpEq {
		return selectionSelectivity
	}
	lndv := pl.leafColNDV(leaves, leafOf, la.Index)
	rndv := pl.leafColNDV(leaves, leafOf, ra.Index)
	if s, ok := equiSelectivity(lndv, rndv); ok {
		return s
	}
	return joinSelectivity
}

// leafColNDV resolves a global attribute position to its leaf's column
// statistics, returning 0 when unknown.
func (pl *Planner) leafColNDV(leaves []joinLeaf, leafOf []int, global int) float64 {
	if global < 0 || global >= len(leafOf) {
		return 0
	}
	lf := leaves[leafOf[global]]
	return ndvAt(lf.node.meta().colStats, global-lf.offset)
}

// joinOrderPlan is the reconstructed plan of one DP subset: the physical node
// plus the leaf sequence its output columns follow.
type joinOrderPlan struct {
	node   Node
	leaves []int
}

// searchJoinOrder runs the subset dynamic program and reconstructs the
// cheapest join tree.  Cost of combining two subsets is the build-plus-probe
// work of the join: both input cardinalities plus the output cardinality (a
// cross product therefore pays for its full output, which prunes it whenever
// any connected order exists).
func (pl *Planner) searchJoinOrder(leaves []joinLeaf, conjs []joinConjunct) (joinOrderPlan, error) {
	n := len(leaves)
	full := uint(1)<<uint(n) - 1
	card := make([]float64, full+1)
	cost := make([]float64, full+1)
	split := make([]uint, full+1)
	for s := uint(1); s <= full; s++ {
		if bits.OnesCount(s) == 1 {
			i := bits.TrailingZeros(s)
			card[s] = leaves[i].node.Estimate()
			cost[s] = 0
			continue
		}
		// Output cardinality: product of leaf estimates times the
		// selectivity of every conjunct fully contained in the subset.
		c := 1.0
		for i := 0; i < n; i++ {
			if s&(1<<uint(i)) != 0 {
				c *= leaves[i].node.Estimate()
			}
		}
		for _, jc := range conjs {
			if jc.mask&s == jc.mask {
				c *= jc.sel
			}
		}
		card[s] = c
		cost[s] = math.Inf(1)
		// Canonical split enumeration: s1 always contains the lowest set
		// bit, so each unordered partition is tried once (the physical
		// constructor picks build side and commutation itself).
		low := s & (^s + 1)
		for s1 := (s - 1) & s; s1 > 0; s1 = (s1 - 1) & s {
			if s1&low == 0 {
				continue
			}
			s2 := s ^ s1
			w := cost[s1] + cost[s2] + card[s1] + card[s2] + card[s]
			if w < cost[s] {
				cost[s] = w
				split[s] = s1
			}
		}
	}
	return pl.buildJoinOrder(full, leaves, conjs, split)
}

// buildJoinOrder reconstructs the physical plan of a DP subset, attaching
// every conjunct — each spans two leaves or more — at the lowest join that
// covers it.
func (pl *Planner) buildJoinOrder(s uint, leaves []joinLeaf, conjs []joinConjunct, split []uint) (joinOrderPlan, error) {
	if bits.OnesCount(s) == 1 {
		i := bits.TrailingZeros(s)
		return joinOrderPlan{node: leaves[i].node, leaves: []int{i}}, nil
	}
	s1 := split[s]
	s2 := s ^ s1
	left, err := pl.buildJoinOrder(s1, leaves, conjs, split)
	if err != nil {
		return joinOrderPlan{}, err
	}
	right, err := pl.buildJoinOrder(s2, leaves, conjs, split)
	if err != nil {
		return joinOrderPlan{}, err
	}
	order := append(append([]int(nil), left.leaves...), right.leaves...)
	// Attribute positions in the joined frame follow the leaf sequence.
	mapping := make(map[int]int)
	pos := 0
	for _, i := range order {
		for c := 0; c < leaves[i].arity; c++ {
			mapping[leaves[i].offset+c] = pos
			pos++
		}
	}
	var spanning []scalar.Predicate
	for _, jc := range conjs {
		if jc.mask&s == jc.mask && jc.mask&s1 != jc.mask && jc.mask&s2 != jc.mask {
			rebased, err := jc.pred.Rebase(mapping)
			if err != nil {
				return joinOrderPlan{}, err
			}
			spanning = append(spanning, rebased)
		}
	}
	var cond scalar.Predicate
	if len(spanning) > 0 {
		cond = scalar.NewAnd(spanning...)
	}
	node, err := pl.makeJoin(cond, left.node, right.node)
	if err != nil {
		return joinOrderPlan{}, err
	}
	return joinOrderPlan{node: node, leaves: order}, nil
}
