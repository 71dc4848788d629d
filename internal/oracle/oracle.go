// Package oracle is the definition-literal evaluator the test suites hold
// the engine against.  It evaluates an algebra expression from the paper's
// definitions over plain Go slices of (row, multiplicity), with an equality
// of its own (key.go), and shares no code with the engine: it reads base
// relations only through multiset.Relation.Each, wraps a row in a
// tuple.Tuple only to call a scalar predicate or expression, and calls no
// multiset operator and none of the Equal, Hash or Compare methods of value,
// tuple or multiset.  Only _test.go files import it; the root package's
// pipeline gate enforces both rules.
package oracle

import (
	"fmt"
	"slices"

	"mra/internal/algebra"
	"mra/internal/multiset"
	"mra/internal/tuple"
	"mra/internal/value"
)

// Source resolves relation names to the base relations an expression reads.
// Every storage, transaction and map source of the engine satisfies it.
type Source interface {
	Relation(name string) (*multiset.Relation, bool)
}

// Eval evaluates e over src as the paper's definitions read it.  The
// expression is validated first, so an ill-typed expression fails with the
// algebra's error, as it does in the engine.
func Eval(e algebra.Expr, src Source) (Bag, error) {
	cat := algebra.MapCatalog{}
	for _, name := range algebra.Relations(e) {
		if r, ok := src.Relation(name); ok {
			cat[name] = r.Schema()
		}
	}
	s, err := e.Schema(cat)
	if err != nil {
		return Bag{}, err
	}
	rows, err := eval(e, src)
	if err != nil {
		return Bag{}, err
	}
	return collect(s, rows), nil
}

// eval returns the rows of e, distinct by key, with positive counts.
func eval(e algebra.Expr, src Source) ([]row, error) {
	switch n := e.(type) {
	case algebra.Rel:
		r, ok := src.Relation(n.Name)
		if !ok {
			return nil, fmt.Errorf("oracle: unknown relation %q", n.Name)
		}
		return Of(r).rows, nil
	case algebra.Literal:
		rows := make([]row, len(n.Rows))
		for i, vals := range n.Rows {
			rows[i] = row{vals: vals, count: 1}
		}
		return distinct(rows), nil
	case algebra.Union: // (R1 ⊎ R2)(x) = R1(x) + R2(x)
		return binaryOp(n.Left, n.Right, src, pointwise(func(a, b uint64) uint64 { return a + b }))
	case algebra.Difference: // (R1 ∸ R2)(x) = max(0, R1(x) − R2(x))
		return binaryOp(n.Left, n.Right, src, pointwise(func(a, b uint64) uint64 { return a - min(a, b) }))
	case algebra.Intersect: // (R1 ∩ R2)(x) = min(R1(x), R2(x))
		return binaryOp(n.Left, n.Right, src, pointwise(func(a, b uint64) uint64 { return min(a, b) }))
	case algebra.Product:
		return binaryOp(n.Left, n.Right, src, func(l, r []row) ([]row, error) { return product(l, r, nil) })
	case algebra.Join: // Theorem 3.1: E1 ⋈φ E2 = σφ(E1 × E2), taken literally
		return binaryOp(n.Left, n.Right, src, func(l, r []row) ([]row, error) { return product(l, r, n.Cond.Holds) })
	case algebra.Select:
		return unaryOp(n.Input, src, func(x row) (row, bool, error) {
			ok, err := n.Cond.Holds(tuple.FromSlice(x.vals))
			return x, ok, err
		})
	case algebra.Project: // π adds up the multiplicities of rows it maps onto one
		return unaryOp(n.Input, src, func(x row) (row, bool, error) {
			vals := make([]value.Value, len(n.Columns))
			for j, c := range n.Columns {
				vals[j] = x.vals[c]
			}
			return row{vals: vals, count: x.count}, true, nil
		})
	case algebra.ExtProject:
		return unaryOp(n.Input, src, func(x row) (row, bool, error) {
			vals := make([]value.Value, len(n.Items))
			for j, item := range n.Items {
				v, err := item.Eval(tuple.FromSlice(x.vals))
				if err != nil {
					return row{}, false, err
				}
				vals[j] = v
			}
			return row{vals: vals, count: x.count}, true, nil
		})
	case algebra.Unique: // (δR)(x) = 1 wherever R(x) > 0
		return unaryOp(n.Input, src, func(x row) (row, bool, error) { return row{vals: x.vals, count: 1}, true, nil })
	case algebra.GroupBy:
		in, err := eval(n.Input, src)
		if err != nil {
			return nil, err
		}
		return groupBy(n, in)
	case algebra.TClose:
		in, err := eval(n.Input, src)
		if err != nil {
			return nil, err
		}
		return closure(in), nil
	default:
		return nil, fmt.Errorf("oracle: unsupported expression %T", e)
	}
}

// unaryOp evaluates in and maps each of its rows through f, which may drop a
// row (σ) or fail; rows that f maps onto one are merged.
func unaryOp(in algebra.Expr, src Source, f func(row) (row, bool, error)) ([]row, error) {
	rows, err := eval(in, src)
	if err != nil {
		return nil, err
	}
	out := make([]row, 0, len(rows))
	for _, x := range rows {
		y, keep, err := f(x)
		if err != nil {
			return nil, err
		}
		if keep {
			out = append(out, y)
		}
	}
	return distinct(out), nil
}

// binaryOp evaluates the two operands, left first, and combines them with f.
func binaryOp(a, b algebra.Expr, src Source, f func(l, r []row) ([]row, error)) ([]row, error) {
	l, err := eval(a, src)
	if err != nil {
		return nil, err
	}
	r, err := eval(b, src)
	if err != nil {
		return nil, err
	}
	return f(l, r)
}

// pointwise is the operator (R1 op R2)(x) = f(R1(x), R2(x)), over every row
// x of either operand.
func pointwise(f func(a, b uint64) uint64) func(l, r []row) ([]row, error) {
	return func(l, r []row) ([]row, error) {
		left, right := counts(l), counts(r)
		var out []row
		for _, x := range l {
			out = append(out, row{vals: x.vals, count: f(x.count, right[rowKey(x.vals)])})
		}
		for _, y := range r {
			if _, ok := left[rowKey(y.vals)]; !ok {
				out = append(out, row{vals: y.vals, count: f(0, y.count)})
			}
		}
		return distinct(out), nil
	}
}

// product is (R1 × R2)(x ⊕ y) = R1(x) · R2(y), by nested loops, keeping only
// the pairs that satisfy cond when one is given.  Distinct operands give
// distinct concatenations, since keys are self-delimiting.
func product(l, r []row, cond func(tuple.Tuple) (bool, error)) ([]row, error) {
	var out []row
	var pair []value.Value
	for _, x := range l {
		for _, y := range r {
			pair = append(append(pair[:0], x.vals...), y.vals...)
			if cond != nil {
				ok, err := cond(tuple.FromSlice(pair))
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			out = append(out, row{vals: slices.Clone(pair), count: x.count * y.count})
		}
	}
	return out, nil
}

// closure is the smallest transitively closed relation containing δR, found
// as the least fixpoint of C₀ = δR, C_{k+1} = δ(C_k ⊎ π_{1,4}(C_k ⋈_{2=1} R)):
// every round recomputes the whole composition, until a round adds no pair.
func closure(r []row) []row {
	succ := make(map[string][]value.Value)
	for _, e := range r {
		k := valueKey(e.vals[0])
		succ[k] = append(succ[k], e.vals[1])
	}
	c := r
	for {
		next := slices.Clone(c)
		for _, p := range c {
			for _, d := range succ[valueKey(p.vals[1])] {
				next = append(next, row{vals: []value.Value{p.vals[0], d}, count: 1})
			}
		}
		next = distinct(next)
		for i := range next {
			next[i].count = 1
		}
		if len(next) == len(c) {
			return next
		}
		c = next
	}
}

// SetForm rewrites e into the set-based algebra the paper compares against:
// the bag algebra with δ over every base relation and after every operator.
// δ is the identity there, so a Unique node keeps only its input.
// Evaluating SetForm(e), with the oracle or the engine, is evaluating e
// under set semantics.
func SetForm(e algebra.Expr) algebra.Expr {
	s := SetForm
	switch n := e.(type) {
	case algebra.Unique:
		return s(n.Input)
	case algebra.Union:
		e = algebra.NewUnion(s(n.Left), s(n.Right))
	case algebra.Difference:
		e = algebra.NewDifference(s(n.Left), s(n.Right))
	case algebra.Intersect:
		e = algebra.NewIntersect(s(n.Left), s(n.Right))
	case algebra.Product:
		e = algebra.NewProduct(s(n.Left), s(n.Right))
	case algebra.Join:
		e = algebra.NewJoin(n.Cond, s(n.Left), s(n.Right))
	case algebra.Select:
		e = algebra.NewSelect(n.Cond, s(n.Input))
	case algebra.Project:
		e = algebra.NewProject(n.Columns, s(n.Input))
	case algebra.ExtProject:
		e = algebra.NewExtProject(n.Items, n.Names, s(n.Input))
	case algebra.GroupBy:
		e = algebra.NewGroupByMulti(n.GroupCols, n.Aggs, s(n.Input))
	case algebra.TClose:
		e = algebra.NewTClose(s(n.Input))
	}
	return algebra.NewUnique(e)
}
