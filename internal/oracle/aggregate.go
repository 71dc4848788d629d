package oracle

import (
	"fmt"
	"math"
	"math/big"
	"strings"

	"mra/internal/algebra"
	"mra/internal/plan"
	"mra/internal/value"
)

// groupBy evaluates Γ_{α,(f,p)…}(E) literally per Definitions 3.3 and 3.4:
// the input is partitioned by the key of its grouping attributes, and every
// aggregate is then computed by a fresh full pass over its group's rows.  A
// global aggregate (α empty) yields exactly one row, even on empty input.
func groupBy(n algebra.GroupBy, in []row) ([]row, error) {
	type group struct {
		key  []value.Value
		rows []row
	}
	var groups []group
	at := make(map[string]int)
	for _, x := range in {
		key := make([]value.Value, len(n.GroupCols))
		for i, c := range n.GroupCols {
			key[i] = x.vals[c]
		}
		gi, ok := at[rowKey(key)]
		if !ok {
			gi = len(groups)
			at[rowKey(key)] = gi
			groups = append(groups, group{key: key})
		}
		groups[gi].rows = append(groups[gi].rows, x)
	}
	if len(n.GroupCols) == 0 && len(groups) == 0 {
		groups = append(groups, group{})
	}
	out := make([]row, len(groups))
	for gi, g := range groups {
		vals := append([]value.Value(nil), g.key...)
		for _, sp := range n.Aggs {
			v, err := aggregate(sp.Fn, sp.Col, g.rows)
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
		}
		out[gi] = row{vals: vals, count: 1}
	}
	return out, nil
}

// aggregate computes one aggregate function over a group's rows as
// Definition 3.3 writes it.  The accumulation follows the definitions the
// engine implements, so results agree bit for bit: integer sums are exact
// (math/big) and an integer SUM outside int64 fails with plan.ErrOverflow,
// float sums use Neumaier compensation, nulls count for CNT but are skipped
// by sums and extrema, and AVG, MIN and MAX of nothing fail with
// plan.ErrEmptyAggregate.
func aggregate(fn algebra.Aggregate, col int, rows []row) (value.Value, error) {
	switch fn {
	case algebra.AggCount:
		var total uint64
		for _, x := range rows {
			total += x.count
		}
		return value.NewInt(int64(total)), nil

	case algebra.AggSum, algebra.AggAvg:
		isum := new(big.Int)
		var fsum, fcomp float64
		var count uint64
		fltIn := false
		for _, x := range rows {
			count += x.count
			switch v := x.vals[col]; v.Kind() {
			case value.KindInt:
				term := new(big.Int).SetUint64(x.count)
				isum.Add(isum, term.Mul(term, big.NewInt(v.Int())))
			case value.KindFloat:
				a := v.Float() * float64(x.count)
				t := fsum + a
				if math.Abs(fsum) >= math.Abs(a) {
					fcomp += (fsum - t) + a
				} else {
					fcomp += (a - t) + fsum
				}
				fsum, fltIn = t, true
			case value.KindNull:
			default:
				return value.Null, fmt.Errorf("oracle: %s over non-numeric value %s", fn, v)
			}
		}
		ifloat, _ := new(big.Float).SetInt(isum).Float64()
		switch {
		case fn == algebra.AggSum && fltIn:
			return value.NewFloat(fsum + fcomp + ifloat), nil
		case fn == algebra.AggSum && !isum.IsInt64():
			return value.Null, plan.ErrOverflow
		case fn == algebra.AggSum:
			return value.NewInt(isum.Int64()), nil
		case count == 0:
			return value.Null, plan.ErrEmptyAggregate
		}
		return value.NewFloat((fsum + fcomp + ifloat) / float64(count)), nil

	case algebra.AggMin, algebra.AggMax:
		var best value.Value
		seen := false
		for _, x := range rows {
			v := x.vals[col]
			if v.IsNull() {
				continue
			}
			if c := order(v, best); !seen || fn == algebra.AggMin && c < 0 || fn == algebra.AggMax && c > 0 {
				best, seen = v, true
			}
		}
		if !seen {
			return value.Null, plan.ErrEmptyAggregate
		}
		return best, nil
	}
	return value.Null, fmt.Errorf("oracle: unknown aggregate %v", fn)
}

// order is the oracle's own total order of two non-null values of one
// column.  Numbers compare by their exact values (an int and a float through
// math/big, never through the int's float image), NaN above every number
// and equal to every NaN; strings compare bytewise, false before true, and
// other kinds by kind.
func order(a, b value.Value) int {
	if a.Kind().Numeric() && b.Kind().Numeric() {
		exact := func(v value.Value) (*big.Float, bool) {
			if v.Kind() == value.KindInt {
				return new(big.Float).SetInt64(v.Int()), false
			}
			if math.IsNaN(v.Float()) {
				return nil, true
			}
			return new(big.Float).SetFloat64(v.Float()), false
		}
		x, xNaN := exact(a)
		y, yNaN := exact(b)
		if xNaN || yNaN {
			return b2i(xNaN) - b2i(yNaN)
		}
		return x.Cmp(y)
	}
	switch {
	case a.Kind() != b.Kind():
		return int(a.Kind()) - int(b.Kind())
	case a.Kind() == value.KindString:
		return strings.Compare(a.Str(), b.Str())
	case a.Kind() == value.KindBool:
		return b2i(a.Bool()) - b2i(b.Bool())
	}
	return 0
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
