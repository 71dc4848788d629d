package plan

import (
	"slices"

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
//
// newVecCmp specialises it once, when the predicate is compiled.  keep is op
// as the set of three-way outcomes it accepts (bit c+1 for c ∈ {-1, 0, 1}),
// so the row loop compares two numbers and tests a bit, with no operator
// switch.  An integer constant is held as its payload ci (intConst), and a
// number is held as its float image cf wherever one float compare is exact
// (fltConst, mixConst).  A row the typed loop cannot decide — a null, a
// string, a boolean, a NaN constant, an int and a float too large for their
// float compare to be exact — goes to CompareOp.Apply, the generic
// comparison, so every result and every error is Apply's, row for row.
type vecCmp struct {
	op   value.CompareOp
	lcol int
	rcol int
	rval value.Value
	keep uint8
	// intConst marks an integer constant ci; fltConst a constant a float
	// compares with on its exact image cf (a float other than NaN, or an
	// integer within ±2^53); mixConst a float strictly within ±2^53, which
	// an int compares with on its own image, exact up to ±2^53 and beyond
	// it on the right side of the constant.  flipped marks a constant
	// written on the left, which the generic comparison takes back there so
	// its errors name the operands in written order, as Predicate.Holds does.
	intConst, fltConst, mixConst, flipped bool
	ci                                    int64
	cf                                    float64
}

// newVecCmp compiles `%lcol op %rcol`, or `%lcol op rval` when rcol is
// negative.
func newVecCmp(op value.CompareOp, lcol, rcol int, rval value.Value) vecCmp {
	k := vecCmp{op: op, lcol: lcol, rcol: rcol, rval: rval, keep: keepMask(op)}
	if rcol < 0 {
		switch rval.Kind() {
		case value.KindInt:
			k.intConst, k.ci, k.cf = true, rval.Int(), float64(rval.Int())
			k.fltConst = -1<<53 <= k.ci && k.ci <= 1<<53
		case value.KindFloat:
			f := rval.Float()
			k.cf, k.fltConst, k.mixConst = f, f == f, -0x1p53 < f && f < 0x1p53
		}
	}
	return k
}

// keepMask returns the three-way outcomes op accepts, bit c+1 for outcome c,
// and none for an operator it does not know, which compileVecPred leaves to
// Holds and its error.
func keepMask(op value.CompareOp) uint8 {
	switch op {
	case value.CmpEq:
		return 0b010
	case value.CmpNe:
		return 0b101
	case value.CmpLt:
		return 0b001
	case value.CmpLe:
		return 0b011
	case value.CmpGt:
		return 0b100
	case value.CmpGe:
		return 0b110
	}
	return 0
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
		if !ok || keepMask(cmp.Op) == 0 {
			return nil, false
		}
		l, lok := cmp.Left.(scalar.Attr)
		r, rok := cmp.Right.(scalar.Attr)
		var k vecCmp
		switch {
		case lok && rok:
			k = newVecCmp(cmp.Op, l.Index, r.Index, value.Null)
		case lok:
			cv, ok := cmp.Right.(scalar.Const)
			if !ok {
				return nil, false
			}
			k = newVecCmp(cmp.Op, l.Index, -1, cv.Value)
		case rok:
			cv, ok := cmp.Left.(scalar.Const)
			if !ok {
				return nil, false
			}
			k = newVecCmp(cmp.Op.Flip(), r.Index, -1, cv.Value)
			k.flipped = true
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
	// selA and selB alternate as kernel input and output; both start
	// non-nil, so a refined selection is never mistaken for "all rows".
	selA, selB []int32
	// all is the identity selection, grown to the largest batch seen: the
	// rows the first kernel tests when every row of a batch is live.
	all []int32
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
	if cur == nil && len(s.kernels) > 0 {
		for len(s.all) < b.rows() {
			s.all = append(s.all, int32(len(s.all)))
		}
		cur = s.all[:b.rows()]
	}
	for i := range s.kernels {
		out, err := s.kernels[i].apply(b, cur, s.selA[:0])
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

// apply runs the kernel over the rows of b listed in `in`, appending the
// surviving row indices to out.  It reads each tested value in place
// (Batch.at), never gathering a column, so it touches only the rows it
// tests.  The loops append without a branch: every tested row is written,
// and the count advances by its keep bit.
func (k *vecCmp) apply(b *Batch, in []int32, out []int32) ([]int32, error) {
	n := len(out)
	out = slices.Grow(out, len(in))[:n+len(in)]
	if k.rcol >= 0 {
		for _, r := range in {
			var keep int
			l, rv := b.at(int(r), k.lcol), b.at(int(r), k.rcol)
			switch lk, rk := l.Kind(), rv.Kind(); {
			case lk == value.KindInt && rk == value.KindInt:
				keep = k.keeps(cmpInt(l.Int(), rv.Int()))
			case lk.Numeric() && rk.Numeric():
				keep = k.keeps(l.Compare(rv))
			default:
				ok, err := k.op.Apply(l, rv)
				if err != nil {
					return out[:n], err
				}
				keep = b2i(ok)
			}
			out[n] = r
			n += keep
		}
		return out[:n], nil
	}
	for _, r := range in {
		var keep int
		l := b.at(int(r), k.lcol)
		switch lk := l.Kind(); {
		case k.fltConst && lk == value.KindFloat:
			keep = k.keeps(cmpFloatConst(l.Float(), k.cf))
		case k.intConst && lk == value.KindInt:
			keep = k.keeps(cmpInt(l.Int(), k.ci))
		case k.mixConst && lk == value.KindInt:
			keep = k.keeps(cmpFloatConst(float64(l.Int()), k.cf))
		default:
			ok, err := k.generic(l)
			if err != nil {
				return out[:n], err
			}
			keep = b2i(ok)
		}
		out[n] = r
		n += keep
	}
	return out[:n], nil
}

// generic compares value l with the constant through CompareOp.Apply, in
// the order the comparison was written.
func (k *vecCmp) generic(l value.Value) (bool, error) {
	if k.flipped {
		return k.op.Flip().Apply(k.rval, l)
	}
	return k.op.Apply(l, k.rval)
}

// keeps is 1 when the kernel's operator accepts three-way outcome c, else 0.
func (k *vecCmp) keeps(c int) int { return int(k.keep >> (c + 1) & 1) }

// cmpInt is the three-way comparison of two integers.
func cmpInt(a, b int64) int {
	return b2i(a > b) - b2i(a < b)
}

// cmpFloatConst is Value.Compare's three-way comparison of a number with a
// constant that is not NaN: a NaN sorts above every number, so it compares
// greater.
func cmpFloatConst(a, c float64) int {
	return b2i(!(a <= c)) - b2i(a < c)
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
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
