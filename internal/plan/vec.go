package plan

import (
	"mra/internal/scalar"
	"mra/internal/value"
)

// This file holds the column-at-a-time operator kernels: compiled comparison
// predicates for the vectorised Filter, per-row columnar expression
// evaluation for ExtProject, and the incremental key hashing the join probe
// and aggregate update run straight off column vectors.  Kernels evaluate
// live rows only — dead rows may hold values a filter below already rejected,
// so touching them could surface errors a correct execution must not
// produce.

// vecCmp is one compiled atomic comparison of a filter predicate:
// column `op` column, or column `op` constant when rcol is negative.
type vecCmp struct {
	op   value.CompareOp
	lcol int
	rcol int
	rval value.Value
}

// compileVecPred compiles a predicate into a conjunction of vecCmp kernels.
// It reports false when the predicate has a shape the kernels cannot express
// (disjunction, negation, arithmetic operands, ...), in which case the filter
// falls back to row-wise Predicate.Holds over live rows.  An empty kernel
// list with a true report is the always-true predicate.
func compileVecPred(p scalar.Predicate) ([]vecCmp, bool) {
	conjuncts := scalar.Conjuncts(p)
	kernels := make([]vecCmp, 0, len(conjuncts))
	for _, c := range conjuncts {
		cmp, ok := c.(scalar.Compare)
		if !ok {
			return nil, false
		}
		k := vecCmp{op: cmp.Op, rcol: -1}
		l, lok := cmp.Left.(scalar.Attr)
		r, rok := cmp.Right.(scalar.Attr)
		switch {
		case lok && rok:
			k.lcol, k.rcol = l.Index, r.Index
		case lok:
			cv, ok := cmp.Right.(scalar.Const)
			if !ok {
				return nil, false
			}
			k.lcol, k.rval = l.Index, cv.Value
		case rok:
			cv, ok := cmp.Left.(scalar.Const)
			if !ok {
				return nil, false
			}
			k.lcol, k.rval, k.op = r.Index, cv.Value, cmp.Op.Flip()
		default:
			return nil, false
		}
		kernels = append(kernels, k)
	}
	return kernels, true
}

// selector is a compiled selection predicate: a conjunction of comparison
// kernels where compileVecPred can express it, else row-wise Holds over the
// live rows' tuples.  It is how a Filter, and a hash join's residual, narrow
// a batch's selection vector instead of compacting it.  A selector holds
// per-run scratch, so operators build one per run call, never on the node.
type selector struct {
	pred     scalar.Predicate
	kernels  []vecCmp
	compiled bool
	cc       colCache
	// selA and selB alternate as kernel input and output; both start
	// non-nil, so a refined selection is never mistaken for "all rows".
	selA, selB []int32
}

// newSelector compiles pred for refine.
func newSelector(pred scalar.Predicate) *selector {
	kernels, compiled := compileVecPred(pred)
	return &selector{pred: pred, kernels: kernels, compiled: compiled,
		selA: make([]int32, 0, DefaultBatchSize), selB: make([]int32, 0, DefaultBatchSize)}
}

// refine returns the selection vector of b's live rows that satisfy the
// predicate.  An always-true predicate returns b.Sel itself (nil when every
// row is live); any other returns a non-nil vector, owned by the selector
// and valid until the next call.  Only live rows are evaluated.
func (s *selector) refine(b *Batch) ([]int32, error) {
	s.cc.batch(b)
	rows := b.rows()
	cur := b.Sel
	if !s.compiled {
		out := s.selA[:0]
		n := b.Len()
		for i := 0; i < n; i++ {
			r := b.Row(i)
			ok, err := s.pred.Holds(b.TupleAt(r))
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, int32(r))
			}
		}
		s.selA, s.selB = s.selB, out
		return out, nil
	}
	for i := range s.kernels {
		out, err := s.kernels[i].apply(&s.cc, cur, rows, s.selA[:0])
		if err != nil {
			return nil, err
		}
		s.selA, s.selB = s.selB, out
		cur = out
		if len(cur) == 0 {
			break
		}
	}
	return cur, nil
}

// apply runs the kernel over the rows listed in `in` (nil meaning all `rows`
// physical rows), appending the surviving row indices to out.  cc must be
// bound to the kernel's batch.
func (k *vecCmp) apply(cc *colCache, in []int32, rows int, out []int32) ([]int32, error) {
	lv := cc.col(k.lcol)
	var rv value.Vec
	if k.rcol >= 0 {
		rv = cc.col(k.rcol)
	}
	if in == nil {
		for r := 0; r < rows; r++ {
			rhs := k.rval
			if rv != nil {
				rhs = rv[r]
			}
			ok, err := cmpVals(k.op, lv[r], rhs)
			if err != nil {
				return out, err
			}
			if ok {
				out = append(out, int32(r))
			}
		}
		return out, nil
	}
	for _, r := range in {
		rhs := k.rval
		if rv != nil {
			rhs = rv[r]
		}
		ok, err := cmpVals(k.op, lv[r], rhs)
		if err != nil {
			return out, err
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, nil
}

// cmpVals compares two values under op with an inlined integer fast path —
// the overwhelmingly common case in filter and join keys — deferring to the
// generic CompareOp.Apply (null semantics, mixed numeric kinds, type errors)
// otherwise.
func cmpVals(op value.CompareOp, a, b value.Value) (bool, error) {
	if a.Kind() == value.KindInt && b.Kind() == value.KindInt {
		ai, bi := a.Int(), b.Int()
		switch op {
		case value.CmpEq:
			return ai == bi, nil
		case value.CmpNe:
			return ai != bi, nil
		case value.CmpLt:
			return ai < bi, nil
		case value.CmpLe:
			return ai <= bi, nil
		case value.CmpGt:
			return ai > bi, nil
		case value.CmpGe:
			return ai >= bi, nil
		}
	}
	return op.Apply(a, b)
}

// evalAt evaluates a scalar expression at physical row r of the bound batch,
// reading operands from column vectors: the columnar counterpart of Expr.Eval
// that ExtProject's kernel uses so common expression shapes never materialise
// a tuple.  Unknown expression shapes fall back to Eval over the row's tuple.
func evalAt(e scalar.Expr, b *Batch, cc *colCache, r int) (value.Value, error) {
	switch x := e.(type) {
	case scalar.Attr:
		return cc.col(x.Index)[r], nil
	case scalar.Const:
		return x.Value, nil
	case scalar.Arith:
		l, err := evalAt(x.Left, b, cc, r)
		if err != nil {
			return value.Null, err
		}
		rt, err := evalAt(x.Right, b, cc, r)
		if err != nil {
			return value.Null, err
		}
		return x.Op.Apply(l, rt)
	default:
		return e.Eval(b.TupleAt(r))
	}
}
