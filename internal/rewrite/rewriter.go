package rewrite

import (
	"mra/internal/algebra"
)

// Rewriter applies a rule set bottom-up until no rule applies anywhere in the
// expression (or the iteration bound is hit, which guards against accidental
// rule cycles).
type Rewriter struct {
	// Rules is the ordered rule set; DefaultRules() if nil.
	Rules []Rule
	// MaxPasses bounds the number of whole-tree passes; 8 if zero.
	MaxPasses int
}

// NewRewriter returns a rewriter with the default rule set.
func NewRewriter() *Rewriter { return &Rewriter{Rules: DefaultRules()} }

// Rewrite returns the optimised expression and the trace of rule
// applications, in order.
func (rw *Rewriter) Rewrite(e algebra.Expr, cat algebra.Catalog) (algebra.Expr, []Applied) {
	rules := rw.Rules
	if rules == nil {
		rules = DefaultRules()
	}
	maxPasses := rw.MaxPasses
	if maxPasses == 0 {
		maxPasses = 8
	}
	var trace []Applied
	cur := e
	for pass := 0; pass < maxPasses; pass++ {
		next, changed := rewriteNode(cur, cat, rules, &trace)
		cur = next
		if !changed {
			break
		}
	}
	return cur, trace
}

// rewriteNode rewrites the children first, then repeatedly applies rules at
// this node until none fires.
func rewriteNode(e algebra.Expr, cat algebra.Catalog, rules []Rule, trace *[]Applied) (algebra.Expr, bool) {
	node, childChanged := rebuildChildren(e, cat, rules, trace)
	changed := childChanged
	for {
		fired := false
		for _, r := range rules {
			next, ok := r.Apply(node, cat)
			if !ok {
				continue
			}
			*trace = append(*trace, Applied{Rule: r.Name()})
			node = next
			fired = true
			changed = true
			// A rewrite may expose new opportunities below the new node.
			node, _ = rebuildChildren(node, cat, rules, trace)
			break
		}
		if !fired {
			return node, changed
		}
	}
}

// rebuildChildren rewrites an expression's children and reassembles the node.
func rebuildChildren(e algebra.Expr, cat algebra.Catalog, rules []Rule, trace *[]Applied) (algebra.Expr, bool) {
	switch n := e.(type) {
	case algebra.Union:
		l, lc := rewriteNode(n.Left, cat, rules, trace)
		r, rc := rewriteNode(n.Right, cat, rules, trace)
		return algebra.NewUnion(l, r), lc || rc
	case algebra.Difference:
		l, lc := rewriteNode(n.Left, cat, rules, trace)
		r, rc := rewriteNode(n.Right, cat, rules, trace)
		return algebra.NewDifference(l, r), lc || rc
	case algebra.Intersect:
		l, lc := rewriteNode(n.Left, cat, rules, trace)
		r, rc := rewriteNode(n.Right, cat, rules, trace)
		return algebra.NewIntersect(l, r), lc || rc
	case algebra.Product:
		l, lc := rewriteNode(n.Left, cat, rules, trace)
		r, rc := rewriteNode(n.Right, cat, rules, trace)
		return algebra.NewProduct(l, r), lc || rc
	case algebra.Join:
		l, lc := rewriteNode(n.Left, cat, rules, trace)
		r, rc := rewriteNode(n.Right, cat, rules, trace)
		return algebra.NewJoin(n.Cond, l, r), lc || rc
	case algebra.Select:
		in, c := rewriteNode(n.Input, cat, rules, trace)
		return algebra.NewSelect(n.Cond, in), c
	case algebra.Project:
		in, c := rewriteNode(n.Input, cat, rules, trace)
		return algebra.NewProject(n.Columns, in), c
	case algebra.ExtProject:
		in, c := rewriteNode(n.Input, cat, rules, trace)
		return algebra.NewExtProject(n.Items, n.Names, in), c
	case algebra.Unique:
		in, c := rewriteNode(n.Input, cat, rules, trace)
		return algebra.NewUnique(in), c
	case algebra.GroupBy:
		in, c := rewriteNode(n.Input, cat, rules, trace)
		return algebra.GroupBy{GroupCols: n.GroupCols, Aggs: n.Aggs, Input: in}, c
	case algebra.TClose:
		in, c := rewriteNode(n.Input, cat, rules, trace)
		return algebra.NewTClose(in), c
	default:
		// Leaves (Rel, Literal) and unknown nodes are returned unchanged.
		return e, false
	}
}
