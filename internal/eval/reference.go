package eval

import (
	"fmt"

	"mra/internal/algebra"
	"mra/internal/multiset"
	"mra/internal/plan"
	"mra/internal/tuple"
	"mra/internal/value"
)

// Reference is the definition-literal evaluator: every operator is evaluated
// exactly as written in the paper's definitions, with no physical-operator
// shortcuts (joins go through the full Cartesian product, duplicate
// elimination scans the whole input, and so on).  It is deliberately naive —
// its job is to be an obviously-correct oracle for the physical plans.
type Reference struct{}

// Eval evaluates the expression against the source and returns the resulting
// multi-set relation.
func (Reference) Eval(e algebra.Expr, src Source) (*multiset.Relation, error) {
	return refEval(e, src)
}

func refEval(e algebra.Expr, src Source) (*multiset.Relation, error) {
	switch n := e.(type) {
	case algebra.Rel:
		r, err := lookup(src, n.Name)
		if err != nil {
			return nil, err
		}
		return r.Clone(), nil

	case algebra.Literal:
		s, err := n.Schema(CatalogOf(src))
		if err != nil {
			return nil, err
		}
		out := multiset.New(s)
		for _, row := range n.Rows {
			out.Add(tuple.New(row...), 1)
		}
		return out, nil

	case algebra.Union:
		l, r, err := refEvalPair(n.Left, n.Right, src)
		if err != nil {
			return nil, err
		}
		return multiset.Union(l, r)

	case algebra.Difference:
		l, r, err := refEvalPair(n.Left, n.Right, src)
		if err != nil {
			return nil, err
		}
		return multiset.Difference(l, r)

	case algebra.Intersect:
		l, r, err := refEvalPair(n.Left, n.Right, src)
		if err != nil {
			return nil, err
		}
		return multiset.Intersection(l, r)

	case algebra.Product:
		l, r, err := refEvalPair(n.Left, n.Right, src)
		if err != nil {
			return nil, err
		}
		return multiset.Product(l, r), nil

	case algebra.Select:
		in, err := refEval(n.Input, src)
		if err != nil {
			return nil, err
		}
		return multiset.Select(in, n.Cond.Holds)

	case algebra.Project:
		in, err := refEval(n.Input, src)
		if err != nil {
			return nil, err
		}
		return multiset.Project(in, n.Columns)

	case algebra.Join:
		// Theorem 3.1: E1 ⋈φ E2 = σφ(E1 × E2).  The reference evaluator takes
		// the theorem literally.
		l, r, err := refEvalPair(n.Left, n.Right, src)
		if err != nil {
			return nil, err
		}
		return multiset.Select(multiset.Product(l, r), n.Cond.Holds)

	case algebra.ExtProject:
		in, err := refEval(n.Input, src)
		if err != nil {
			return nil, err
		}
		outSchema, err := n.Schema(CatalogOf(src))
		if err != nil {
			return nil, err
		}
		return multiset.Map(in, outSchema, func(t tuple.Tuple) (tuple.Tuple, error) {
			vals := make([]value.Value, len(n.Items))
			for i, item := range n.Items {
				v, err := item.Eval(t)
				if err != nil {
					return tuple.Tuple{}, err
				}
				vals[i] = v
			}
			return tuple.FromSlice(vals), nil
		})

	case algebra.Unique:
		in, err := refEval(n.Input, src)
		if err != nil {
			return nil, err
		}
		return multiset.Unique(in), nil

	case algebra.GroupBy:
		in, err := refEval(n.Input, src)
		if err != nil {
			return nil, err
		}
		outSchema, err := n.Schema(CatalogOf(src))
		if err != nil {
			return nil, err
		}
		return refGroupBy(n, in, outSchema)

	case algebra.TClose:
		in, err := refEval(n.Input, src)
		if err != nil {
			return nil, err
		}
		return plan.TransitiveClosure(in), nil

	default:
		return nil, fmt.Errorf("eval: unsupported expression %T", e)
	}
}

func refEvalPair(a, b algebra.Expr, src Source) (*multiset.Relation, *multiset.Relation, error) {
	l, err := refEval(a, src)
	if err != nil {
		return nil, nil, err
	}
	r, err := refEval(b, src)
	if err != nil {
		return nil, nil, err
	}
	return l, r, nil
}

// Group-by is evaluated by refGroupBy (aggregate.go), a definition-literal
// implementation independent of the physical layer's decomposable aggregate
// states, so the property tests pin the two-phase machinery against a naive
// oracle.  Transitive closure is shared with the physical layer
// (plan.TransitiveClosure): the set-level fixpoint has no decomposition to
// pin.
