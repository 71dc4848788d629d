// Package rewrite is the executable law table of the multi-set extended
// relational algebra (Section 3.3 of Grefen & de By, ICDE 1994).  Every rule
// encodes an expression equivalence that holds under bag semantics —
// Theorems 3.1–3.3 and the classical pushdown equivalences the paper notes
// carry over from the set-based algebra — so a rewritten expression always
// produces the same multi-set as the original.
//
// No production path rewrites queries: the cost-based planner (internal/plan)
// is the one optimiser, and TestOneCallSitePerStage fails if a non-test file
// outside benchmark/ imports this package.  The rules stay as laws, checked
// by eval.TestPropertyPlannerPreservesBagSemantics and the written vs
// law-applied forms of experiment E9.  The benchmark harness's staged replay
// still times a rewrite span; once a benchmark change drops that span, the
// package's non-test code can go.
package rewrite

import (
	"mra/internal/algebra"
	"mra/internal/scalar"
)

// Rule is a single rewrite rule.  Apply inspects one node (not its children)
// and either returns a semantically equivalent replacement together with
// changed = true, or the node unchanged with changed = false.
type Rule interface {
	// Name identifies the rule in rewrite traces.
	Name() string
	// Apply attempts the rewrite at the given node.
	Apply(e algebra.Expr, cat algebra.Catalog) (algebra.Expr, bool)
}

// sameExpr reports whether two expressions are structurally identical.  The
// comparison uses the canonical String rendering, which is injective on the
// constructors used by this package.
func sameExpr(a, b algebra.Expr) bool { return a.String() == b.String() }

// SelectProductToJoin rewrites σφ(E1 × E2) into E1 ⋈φ E2 (Theorem 3.1 read
// right-to-left).  The physical engine executes joins with equality conjuncts
// as hash joins, so this rewrite is what makes the classic "push the
// selection into the product" optimisation effective.
type SelectProductToJoin struct{}

// Name implements Rule.
func (SelectProductToJoin) Name() string { return "select-product-to-join" }

// Apply implements Rule.
func (SelectProductToJoin) Apply(e algebra.Expr, _ algebra.Catalog) (algebra.Expr, bool) {
	sel, ok := e.(algebra.Select)
	if !ok {
		return e, false
	}
	prod, ok := sel.Input.(algebra.Product)
	if !ok {
		return e, false
	}
	return algebra.NewJoin(sel.Cond, prod.Left, prod.Right), true
}

// MergeSelections rewrites σp(σq(E)) into σ(q ∧ p)(E): a cascade of
// selections is a single selection on the conjunction.
type MergeSelections struct{}

// Name implements Rule.
func (MergeSelections) Name() string { return "merge-selections" }

// Apply implements Rule.
func (MergeSelections) Apply(e algebra.Expr, _ algebra.Catalog) (algebra.Expr, bool) {
	outer, ok := e.(algebra.Select)
	if !ok {
		return e, false
	}
	inner, ok := outer.Input.(algebra.Select)
	if !ok {
		return e, false
	}
	return algebra.NewSelect(scalar.And{Left: inner.Cond, Right: outer.Cond}, inner.Input), true
}

// PushSelectionIntoUnion rewrites σφ(E1 ⊎ E2) into σφ(E1) ⊎ σφ(E2)
// (Theorem 3.2, first equivalence).
type PushSelectionIntoUnion struct{}

// Name implements Rule.
func (PushSelectionIntoUnion) Name() string { return "push-selection-into-union" }

// Apply implements Rule.
func (PushSelectionIntoUnion) Apply(e algebra.Expr, _ algebra.Catalog) (algebra.Expr, bool) {
	sel, ok := e.(algebra.Select)
	if !ok {
		return e, false
	}
	u, ok := sel.Input.(algebra.Union)
	if !ok {
		return e, false
	}
	return algebra.NewUnion(
		algebra.NewSelect(sel.Cond, u.Left),
		algebra.NewSelect(sel.Cond, u.Right),
	), true
}

// PushProjectionIntoUnion rewrites πα(E1 ⊎ E2) into πα(E1) ⊎ πα(E2)
// (Theorem 3.2, second equivalence).
type PushProjectionIntoUnion struct{}

// Name implements Rule.
func (PushProjectionIntoUnion) Name() string { return "push-projection-into-union" }

// Apply implements Rule.
func (PushProjectionIntoUnion) Apply(e algebra.Expr, _ algebra.Catalog) (algebra.Expr, bool) {
	p, ok := e.(algebra.Project)
	if !ok {
		return e, false
	}
	u, ok := p.Input.(algebra.Union)
	if !ok {
		return e, false
	}
	return algebra.NewUnion(
		algebra.NewProject(p.Columns, u.Left),
		algebra.NewProject(p.Columns, u.Right),
	), true
}

// DifferenceToIntersect recognises the Theorem 3.1 encoding E1 − (E1 − E2) and
// replaces it with the native intersection operator, which the engine
// evaluates by iterating the smaller operand only.
type DifferenceToIntersect struct{}

// Name implements Rule.
func (DifferenceToIntersect) Name() string { return "difference-to-intersect" }

// Apply implements Rule.
func (DifferenceToIntersect) Apply(e algebra.Expr, _ algebra.Catalog) (algebra.Expr, bool) {
	outer, ok := e.(algebra.Difference)
	if !ok {
		return e, false
	}
	inner, ok := outer.Right.(algebra.Difference)
	if !ok {
		return e, false
	}
	if !sameExpr(outer.Left, inner.Left) {
		return e, false
	}
	return algebra.NewIntersect(outer.Left, inner.Right), true
}

// PushSelectionIntoJoin pushes conjuncts of a selection above a join (or the
// join's own condition conjuncts) that reference attributes of only one
// operand down to that operand.  This is the classical selection pushdown; it
// is sound under bag semantics because selection preserves multiplicities.
type PushSelectionIntoJoin struct{}

// Name implements Rule.
func (PushSelectionIntoJoin) Name() string { return "push-selection-into-join" }

// Apply implements Rule.
func (PushSelectionIntoJoin) Apply(e algebra.Expr, cat algebra.Catalog) (algebra.Expr, bool) {
	switch n := e.(type) {
	case algebra.Select:
		join, ok := n.Input.(algebra.Join)
		if !ok {
			return e, false
		}
		newJoin, changed := pushConjuncts(algebra.NewJoin(scalar.And{Left: join.Cond, Right: n.Cond}, join.Left, join.Right), cat)
		if !changed {
			return e, false
		}
		return newJoin, true
	case algebra.Join:
		return pushConjuncts(n, cat)
	default:
		return e, false
	}
}

// pushConjuncts splits the join condition's conjuncts into left-only,
// right-only and mixed groups and pushes the single-sided groups below the
// join as selections.  A condition with a conjunct that can fail to
// evaluate (scalar.ErrorFree) stays whole: the law holds for total
// predicates only.
func pushConjuncts(j algebra.Join, cat algebra.Catalog) (algebra.Expr, bool) {
	ls, err := j.Left.Schema(cat)
	if err != nil {
		return j, false
	}
	leftArity := ls.Arity()
	rs, err := j.Right.Schema(cat)
	if err != nil {
		return j, false
	}
	rightArity := rs.Arity()

	// A conjunct that can fail pins the condition: pushed below the join, it
	// or a conjunct written before it would run on other rows.
	conjs := scalar.Conjuncts(j.Cond)
	for _, c := range conjs {
		if !scalar.ErrorFree(c) {
			return j, false
		}
	}
	var leftOnly, rightOnly, mixed []scalar.Predicate
	for _, c := range conjs {
		refs := c.Refs(nil)
		if len(refs) == 0 {
			mixed = append(mixed, c)
			continue
		}
		allLeft, allRight := true, true
		for _, r := range refs {
			if r >= leftArity {
				allLeft = false
			}
			if r < leftArity {
				allRight = false
			}
		}
		switch {
		case allLeft:
			leftOnly = append(leftOnly, c)
		case allRight:
			rightOnly = append(rightOnly, c)
		default:
			mixed = append(mixed, c)
		}
	}
	if len(leftOnly) == 0 && len(rightOnly) == 0 {
		return j, false
	}

	left := j.Left
	if len(leftOnly) > 0 {
		left = algebra.NewSelect(scalar.NewAnd(leftOnly...), left)
	}
	right := j.Right
	if len(rightOnly) > 0 {
		// Right-side conjuncts address the concatenated schema; rebase them to
		// the right operand's own positions.
		mapping := make(map[int]int, rightArity)
		for i := 0; i < rightArity; i++ {
			mapping[leftArity+i] = i
		}
		rebased := make([]scalar.Predicate, 0, len(rightOnly))
		for _, c := range rightOnly {
			rb, err := c.Rebase(mapping)
			if err != nil {
				return j, false
			}
			rebased = append(rebased, rb)
		}
		right = algebra.NewSelect(scalar.NewAnd(rebased...), right)
	}
	return algebra.NewJoin(scalar.NewAnd(mixed...), left, right), true
}

// PushProjectionIntoGroupBy inserts a projection onto the grouping and
// aggregated attributes directly below a group-by, shrinking the group-by's
// input width.  This is exactly the optimisation of the paper's Example 3.2:
// under bag semantics it is an equivalence; under set semantics the same
// rewrite would corrupt aggregate values.
type PushProjectionIntoGroupBy struct{}

// Name implements Rule.
func (PushProjectionIntoGroupBy) Name() string { return "push-projection-into-groupby" }

// Apply implements Rule.
func (PushProjectionIntoGroupBy) Apply(e algebra.Expr, cat algebra.Catalog) (algebra.Expr, bool) {
	g, ok := e.(algebra.GroupBy)
	if !ok {
		return e, false
	}
	in, err := g.Input.Schema(cat)
	if err != nil {
		return e, false
	}
	// Needed columns: the grouping attributes plus every aggregated attribute
	// (shared attributes are projected once).
	needed := append([]int(nil), g.GroupCols...)
	posOf := func(c int) int {
		for i, n := range needed {
			if n == c {
				return i
			}
		}
		needed = append(needed, c)
		return len(needed) - 1
	}
	newAggs := make([]algebra.AggSpec, len(g.Aggs))
	for i, sp := range g.Aggs {
		sp.Col = posOf(sp.Col)
		newAggs[i] = sp
	}
	if len(needed) >= in.Arity() {
		return e, false // nothing to prune
	}
	newGroupCols := make([]int, len(g.GroupCols))
	for i := range g.GroupCols {
		newGroupCols[i] = i
	}
	return algebra.GroupBy{
		GroupCols: newGroupCols,
		Aggs:      newAggs,
		Input:     algebra.NewProject(needed, g.Input),
	}, true
}

// EliminateDoubleUnique rewrites δ(δE) into δE: duplicate elimination is
// idempotent.
type EliminateDoubleUnique struct{}

// Name implements Rule.
func (EliminateDoubleUnique) Name() string { return "eliminate-double-unique" }

// Apply implements Rule.
func (EliminateDoubleUnique) Apply(e algebra.Expr, _ algebra.Catalog) (algebra.Expr, bool) {
	outer, ok := e.(algebra.Unique)
	if !ok {
		return e, false
	}
	if _, ok := outer.Input.(algebra.Unique); !ok {
		return e, false
	}
	return outer.Input, true
}

// EliminateIdentityProject removes a projection that keeps all attributes of
// its input in their original order: π_{%1..%n}(E) = E.
type EliminateIdentityProject struct{}

// Name implements Rule.
func (EliminateIdentityProject) Name() string { return "eliminate-identity-project" }

// Apply implements Rule.
func (EliminateIdentityProject) Apply(e algebra.Expr, cat algebra.Catalog) (algebra.Expr, bool) {
	p, ok := e.(algebra.Project)
	if !ok {
		return e, false
	}
	in, err := p.Input.Schema(cat)
	if err != nil {
		return e, false
	}
	if len(p.Columns) != in.Arity() {
		return e, false
	}
	for i, c := range p.Columns {
		if c != i {
			return e, false
		}
	}
	return p.Input, true
}

// DefaultRules returns the standard rule set in application order.
func DefaultRules() []Rule {
	return []Rule{
		MergeSelections{},
		SelectProductToJoin{},
		PushSelectionIntoUnion{},
		PushProjectionIntoUnion{},
		PushSelectionIntoJoin{},
		DifferenceToIntersect{},
		PushProjectionIntoGroupBy{},
		EliminateDoubleUnique{},
		EliminateIdentityProject{},
	}
}

// Applied records one rule application for explain-style traces.
type Applied struct {
	// Rule is the applied rule's name.
	Rule string
}
