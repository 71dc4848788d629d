package eval

import (
	"fmt"
	"math"
	"math/big"

	"mra/internal/algebra"
	"mra/internal/multiset"
	"mra/internal/plan"
	"mra/internal/schema"
	"mra/internal/tuple"
	"mra/internal/value"
)

// ErrEmptyAggregate is returned when AVG, MIN or MAX is applied to an empty
// multi-set.  The paper defines these aggregate functions as partial
// functions, undefined on empty inputs (Definition 3.3).  The sentinel lives
// in package plan; this alias keeps the historic eval-side name and makes
// errors.Is work across both evaluators.
var ErrEmptyAggregate = plan.ErrEmptyAggregate

// refChunk is one distinct tuple of a group with its multiplicity.
type refChunk struct {
	tup   tuple.Tuple
	count uint64
}

// refGroupBy evaluates Γ_{α,(f,p)…}(E) literally per Definitions 3.3/3.4: the
// materialised input is partitioned by equality on the grouping attributes,
// and every aggregate is then computed by a fresh full pass over its group's
// chunks.  It deliberately shares no code with the physical layer's
// decomposable AggState (Add/MergePartial/Final), so the property tests pin
// the two-phase machinery against an independent oracle.  The accumulation
// scheme (exact integer sums, here in math/big, beside a float64 sum, nulls
// counted by CNT but skipped by sums and extrema) mirrors the definitions the
// physical layer implements, so results agree bit for bit on the shared
// domains, and an integer SUM outside int64 fails with the same
// plan.ErrOverflow.
func refGroupBy(n algebra.GroupBy, in *multiset.Relation, outSchema schema.Relation) (*multiset.Relation, error) {
	type refGroup struct {
		key    tuple.Tuple
		chunks []refChunk
		next   int32
	}
	var groups []refGroup
	index := make(map[uint64]int32)
	var keyErr error
	in.Each(func(t tuple.Tuple, count uint64) bool {
		key, err := t.Project(n.GroupCols)
		if err != nil {
			keyErr = err
			return false
		}
		h := key.Hash()
		head, ok := index[h]
		if !ok {
			head = -1
		}
		gi := int32(-1)
		for i := head; i != -1; i = groups[i].next {
			if groups[i].key.Equal(key) {
				gi = i
				break
			}
		}
		if gi == -1 {
			gi = int32(len(groups))
			index[h] = gi
			groups = append(groups, refGroup{key: key, next: head})
		}
		groups[gi].chunks = append(groups[gi].chunks, refChunk{tup: t, count: count})
		return true
	})
	if keyErr != nil {
		return nil, keyErr
	}

	out := multiset.New(outSchema)
	if len(n.GroupCols) == 0 {
		// A global aggregate always yields exactly one tuple, even on empty
		// input (where the partial aggregate functions fail).
		var chunks []refChunk
		if len(groups) > 0 {
			chunks = groups[0].chunks
		}
		vals := make([]value.Value, len(n.Aggs))
		for i, sp := range n.Aggs {
			v, err := refAggregate(sp.Fn, sp.Col, chunks)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		out.Add(tuple.FromSlice(vals), 1)
		return out, nil
	}
	for gi := range groups {
		vals := make([]value.Value, len(n.Aggs))
		for i, sp := range n.Aggs {
			v, err := refAggregate(sp.Fn, sp.Col, groups[gi].chunks)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		out.Add(groups[gi].key.Concat(tuple.FromSlice(vals)), 1)
	}
	return out, nil
}

// refAggregate computes one aggregate function over a group's chunks exactly
// as Definition 3.3 writes it.
func refAggregate(fn algebra.Aggregate, col int, chunks []refChunk) (value.Value, error) {
	switch fn {
	case algebra.AggCount:
		// CNT: Σ_x E(x), duplicates counted.
		var total uint64
		for _, c := range chunks {
			total += c.count
		}
		return value.NewInt(int64(total)), nil

	case algebra.AggSum, algebra.AggAvg:
		// SUM: Σ_x E(x)·x.p; AVG = SUM/CNT, undefined on empty inputs.  Float
		// addends accumulate with Neumaier compensation, matching the physical
		// layer's AggState term for term, so the oracle and the (possibly
		// re-associated) two-phase plans agree bit for bit.  Integer addends
		// sum exactly; only an integer SUM's int64 result can overflow.
		isum := new(big.Int)
		var fsum, fcomp float64
		var count uint64
		fltIn := false
		for _, c := range chunks {
			count += c.count
			v := c.tup.At(col)
			switch v.Kind() {
			case value.KindInt:
				term := new(big.Int).SetUint64(c.count)
				isum.Add(isum, term.Mul(term, big.NewInt(v.Int())))
			case value.KindFloat:
				x := v.Float() * float64(c.count)
				t := fsum + x
				if math.Abs(fsum) >= math.Abs(x) {
					fcomp += (fsum - t) + x
				} else {
					fcomp += (x - t) + fsum
				}
				fsum = t
				fltIn = true
			case value.KindNull:
				// Nulls contribute nothing to the sum; CNT still counts them.
			default:
				return value.Null, fmt.Errorf("eval: %s over non-numeric value %s", fn, v)
			}
		}
		ifloat, _ := new(big.Float).SetInt(isum).Float64()
		if fn == algebra.AggSum {
			if fltIn {
				return value.NewFloat(fsum + fcomp + ifloat), nil
			}
			if !isum.IsInt64() {
				return value.Null, plan.ErrOverflow
			}
			return value.NewInt(isum.Int64()), nil
		}
		if count == 0 {
			return value.Null, ErrEmptyAggregate
		}
		return value.NewFloat((fsum + fcomp + ifloat) / float64(count)), nil

	case algebra.AggMin, algebra.AggMax:
		// MIN/MAX over the tuples with E(x) > 0; undefined when none (all
		// nulls count as none).
		var best value.Value
		seen := false
		for _, c := range chunks {
			v := c.tup.At(col)
			if v.IsNull() {
				continue
			}
			if !seen {
				best, seen = v, true
				continue
			}
			if fn == algebra.AggMin && v.Less(best) {
				best = v
			}
			if fn == algebra.AggMax && best.Less(v) {
				best = v
			}
		}
		if !seen {
			return value.Null, ErrEmptyAggregate
		}
		return best, nil

	default:
		return value.Null, fmt.Errorf("eval: unknown aggregate %v", fn)
	}
}
