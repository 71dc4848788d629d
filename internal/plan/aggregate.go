package plan

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/bits"

	"mra/internal/algebra"
	"mra/internal/schema"
	"mra/internal/tuple"
	"mra/internal/value"
)

// ErrEmptyAggregate is returned when AVG, MIN or MAX is applied to an empty
// multi-set.  The paper defines these aggregate functions as partial
// functions, undefined on empty inputs (Definition 3.3).
var ErrEmptyAggregate = errors.New("plan: aggregate undefined on an empty multi-set")

// ErrOverflow is returned when an integer SUM does not fit the int64 result
// it must be returned as.  An integer sum is never wrapped or saturated: a
// wrong value is impossible.  It is value.ErrOverflow, the error of integer
// arithmetic, so one errors.Is covers both.
var ErrOverflow = value.ErrOverflow

// groupSpec is the compiled form of a groupby operator Γ_{α,(f,p)…}: the
// grouping columns, the aggregate applications in output order, and the
// result schema.
type groupSpec struct {
	groupCols []int
	aggs      []algebra.AggSpec
	outSchema schema.Relation
}

// AggState is the decomposable execution state of one aggregate function of
// Definition 3.3 over a stream of (value, multiplicity) observations.  It is
// the unit of two-phase aggregation: Add folds input chunks into a local
// (partial) state, MergePartial combines partial states computed over
// disjoint portions of the input, and Final produces the aggregate's value.
//
// Splitting the input is exact because every aggregate of Definition 3.3 is a
// fold over a commutative monoid: CNT and SUM add, MIN and MAX take the
// extremum, and AVG decomposes into the pair (sum, count) that is combined
// point-wise and divided only at Final.  Final preserves the definition's
// partiality: AVG, MIN and MAX on a state that saw no input return
// ErrEmptyAggregate.
//
// Machine arithmetic qualifies the exactness for floats: float addition is
// not associative, so a naively re-associated float sum could round
// differently when partials merge in a different order than the serial fold.
// The float half of the state therefore carries compensated (Neumaier/Kahan)
// summation: fsum accumulates the running sum and fcomp the rounding error
// each addition discards, and Final returns fsum + fcomp — an error-free
// transformation that makes the result of well-conditioned sums independent
// of how the input was partitioned, which is what lets the planner run float
// SUM/AVG two-phase.  Integer sums (isum) are exact 128-bit arithmetic and
// merge bit for bit, so whether an integer SUM overflows its int64 result
// (ErrOverflow, at Final) depends on the bag alone, never on the order or
// split in which the plan added it up.
type AggState struct {
	fn    algebra.Aggregate
	count uint64
	isum  wideInt
	fsum  float64
	fcomp float64
	fltIn bool
	min   value.Value
	max   value.Value
	seen  bool
}

// NewAggState returns the empty state of the given aggregate function.
func NewAggState(fn algebra.Aggregate) AggState { return AggState{fn: fn} }

// fadd folds x into the compensated float sum: Neumaier's variant of Kahan
// summation, which keeps the larger-magnitude operand's discarded low-order
// bits in fcomp so fsum + fcomp carries the sum at roughly double working
// precision.
func (s *AggState) fadd(x float64) {
	t := s.fsum + x
	if math.Abs(s.fsum) >= math.Abs(x) {
		s.fcomp += (s.fsum - t) + x
	} else {
		s.fcomp += (x - t) + s.fsum
	}
	s.fsum = t
}

// wideInt is a 128-bit two's-complement integer: the exact accumulator of an
// integer sum.  An int64 times a multiplicity is below 2^127 in magnitude,
// so a sum can only leave the range when the multiplicities themselves
// overflow.
type wideInt struct {
	hi int64
	lo uint64
}

// mulWide returns v·n exactly.
func mulWide(v int64, n uint64) wideInt {
	a := uint64(v)
	if v < 0 {
		a = -a
	}
	hi, lo := bits.Mul64(a, n)
	if v < 0 {
		var borrow uint64
		lo, borrow = bits.Sub64(0, lo, 0)
		hi, _ = bits.Sub64(0, hi, borrow)
	}
	return wideInt{hi: int64(hi), lo: lo}
}

// add returns w + o, or ErrOverflow when the sum leaves the 128-bit range.
func (w wideInt) add(o wideInt) (wideInt, error) {
	lo, carry := bits.Add64(w.lo, o.lo, 0)
	hi := w.hi + o.hi + int64(carry)
	if (w.hi < 0) == (o.hi < 0) && (hi < 0) != (w.hi < 0) {
		return w, ErrOverflow
	}
	return wideInt{hi: hi, lo: lo}, nil
}

// asInt64 returns w as an int64, and false when it does not fit.
func (w wideInt) asInt64() (int64, bool) {
	return int64(w.lo), w.hi == int64(w.lo)>>63
}

// asFloat64 returns w rounded to the nearest float64.
func (w wideInt) asFloat64() float64 {
	if v, ok := w.asInt64(); ok {
		return float64(v)
	}
	b := new(big.Int).Lsh(big.NewInt(w.hi), 64)
	f, _ := new(big.Float).SetInt(b.Add(b, new(big.Int).SetUint64(w.lo))).Float64()
	return f
}

// Add folds in one stream chunk: the aggregated attribute's value with the
// chunk's multiplicity.  Nulls count towards CNT (and AVG's divisor) but
// contribute nothing to sums and extrema; SUM and AVG over a non-numeric,
// non-null value fail.
func (s *AggState) Add(v value.Value, count uint64) error {
	s.count += count
	switch s.fn {
	case algebra.AggCount:
		return nil
	case algebra.AggSum, algebra.AggAvg:
		switch v.Kind() {
		case value.KindInt:
			var err error
			s.isum, err = s.isum.add(mulWide(v.Int(), count))
			return err
		case value.KindFloat:
			s.fadd(v.Float() * float64(count))
			s.fltIn = true
		case value.KindNull:
			// Nulls contribute nothing to sums; CNT above still counts them.
		default:
			return fmt.Errorf("plan: %s over non-numeric value %s", s.fn, v)
		}
		return nil
	case algebra.AggMin, algebra.AggMax:
		if v.IsNull() {
			return nil
		}
		if !s.seen {
			s.min, s.max, s.seen = v, v, true
			return nil
		}
		if v.Less(s.min) {
			s.min = v
		}
		if s.max.Less(v) {
			s.max = v
		}
		return nil
	default:
		return fmt.Errorf("plan: unknown aggregate %v", s.fn)
	}
}

// MergePartial folds another partial state of the same aggregate function
// into s: counts and sums add, extrema take the minimum/maximum, and AVG's
// (sum, count) pair combines point-wise.  The other state is left untouched.
// It fails with ErrOverflow, leaving s unchanged, only when the integer sums
// leave the 128-bit accumulator.
func (s *AggState) MergePartial(o *AggState) error {
	isum, err := s.isum.add(o.isum)
	if err != nil {
		return err
	}
	s.isum = isum
	s.count += o.count
	// The partial's compensated sum folds in as one compensated addition of
	// its sum plus a direct accumulation of its error term, so the merged
	// state keeps the double-precision invariant fsum + fcomp ≈ true sum.
	s.fadd(o.fsum)
	s.fcomp += o.fcomp
	s.fltIn = s.fltIn || o.fltIn
	if o.seen {
		if !s.seen {
			s.min, s.max, s.seen = o.min, o.max, true
		} else {
			if o.min.Less(s.min) {
				s.min = o.min
			}
			if s.max.Less(o.max) {
				s.max = o.max
			}
		}
	}
	return nil
}

// Final returns the aggregate's value.  AVG, MIN and MAX fail with
// ErrEmptyAggregate on states that saw no input, per Definition 3.3's
// partiality; an integer SUM whose exact sum does not fit an int64 fails
// with ErrOverflow.  A float SUM and AVG take the exact integer sum rounded
// once, so they never overflow.
func (s *AggState) Final() (value.Value, error) {
	switch s.fn {
	case algebra.AggCount:
		return value.NewInt(int64(s.count)), nil
	case algebra.AggSum:
		if s.fltIn {
			return value.NewFloat(s.fsum + s.fcomp + s.isum.asFloat64()), nil
		}
		sum, ok := s.isum.asInt64()
		if !ok {
			return value.Null, ErrOverflow
		}
		return value.NewInt(sum), nil
	case algebra.AggAvg:
		if s.count == 0 {
			return value.Null, ErrEmptyAggregate
		}
		return value.NewFloat((s.fsum + s.fcomp + s.isum.asFloat64()) / float64(s.count)), nil
	case algebra.AggMin:
		if !s.seen {
			return value.Null, ErrEmptyAggregate
		}
		return s.min, nil
	case algebra.AggMax:
		if !s.seen {
			return value.Null, ErrEmptyAggregate
		}
		return s.max, nil
	default:
		return value.Null, fmt.Errorf("plan: unknown aggregate %v", s.fn)
	}
}

// groupTable is the grouped hash table behind the hash aggregate: one
// hashTable entry per group, keyed on the grouping columns, whose tuple is
// the group's representative input row.  Every group owns one AggState per
// aggregate application, stored in a flat arena indexed by entry (group i's
// states are states[i*k : (i+1)*k] for k aggregates) so multi-aggregate
// groups stay cache-adjacent.
type groupTable struct {
	spec   groupSpec
	keys   *hashTable
	states []AggState
	// mem, when non-nil, is charged for every created group (the
	// representative tuple plus its aggregate states), so a runaway grouping
	// trips the query's memory budget instead of exhausting the process.
	mem *MemoryGauge
}

func newGroupTable(spec groupSpec, mem *MemoryGauge) *groupTable {
	return &groupTable{spec: spec, keys: newHashTable(spec.groupCols), mem: mem}
}

// len returns the number of groups.
func (g *groupTable) len() int { return g.keys.len() }

// found gives a group the table just added (entry gi) fresh aggregate
// states, and charges the group to the gauge: it fails when the charge
// exceeds the table's memory budget.
func (g *groupTable) found(gi int32) error {
	for _, sp := range g.spec.aggs {
		g.states = append(g.states, NewAggState(sp.Fn))
	}
	if g.mem == nil {
		return nil
	}
	return g.mem.Grow(approxTupleBytes(g.keys.tups[gi]) + int64(len(g.spec.aggs))*aggStateBytes)
}

// findOrCreate returns the index of t's group, creating it on first sight.
func (g *groupTable) findOrCreate(t tuple.Tuple) (int, error) {
	gi, added := g.keys.tupleEntry(t)
	if added {
		if err := g.found(gi); err != nil {
			return 0, err
		}
	}
	return int(gi), nil
}

// addBatch folds a batch's live rows into the table: each row's group key is
// hashed and compared in place off whichever view the batch carries
// (hashRow, hashTable.nextRow), and its aggregate inputs are read in place
// too, so the per-row loop is the probe plus the state updates — no tuple is
// built except the representative of a newly created group.  A keyless Γ
// has nothing to hash and folds through foldBatch.
func (g *groupTable) addBatch(b *Batch) error {
	if len(g.spec.groupCols) == 0 {
		return g.foldBatch(b)
	}
	k := len(g.spec.aggs)
	n := b.Len()
	for i := 0; i < n; i++ {
		r := b.Row(i)
		e, added := g.keys.rowEntry(b, r)
		if added {
			if err := g.found(e); err != nil {
				return err
			}
		}
		gi := int(e)
		states := g.states[gi*k : (gi+1)*k]
		count := b.Counts[r]
		if b.Tuples != nil {
			t := b.Tuples[r]
			for j := range states {
				if err := states[j].Add(t.At(g.spec.aggs[j].Col), count); err != nil {
					return err
				}
			}
			continue
		}
		for j := range states {
			if err := states[j].Add(b.Cols[g.spec.aggs[j].Col][r], count); err != nil {
				return err
			}
		}
	}
	return nil
}

// foldBatch is addBatch for a keyless Γ, whose table holds at most one
// group.  The first live row founds it through findOrCreate, charged to the
// gauge exactly like any new group; from then on every live row folds
// straight into the one state vector, reading its aggregated values in place
// — no hash, no index probe, no column gather.
func (g *groupTable) foldBatch(b *Batch) error {
	n := b.Len()
	if n == 0 {
		return nil
	}
	if g.len() == 0 {
		if _, err := g.findOrCreate(b.TupleAt(b.Row(0))); err != nil {
			return err
		}
	}
	states := g.states
	for i := 0; i < n; i++ {
		r := b.Row(i)
		count := b.Counts[r]
		for j := range states {
			if err := states[j].Add(b.at(r, g.spec.aggs[j].Col), count); err != nil {
				return err
			}
		}
	}
	return nil
}

// mergeFrom folds another table's partial groups into g — the global phase of
// two-phase aggregation: groups match by their grouping attributes, and
// matching groups' states combine via MergePartial.  Both tables must share
// the same spec.
func (g *groupTable) mergeFrom(o *groupTable) error {
	k := len(g.spec.aggs)
	for i, rep := range o.keys.tups {
		gi, err := g.findOrCreate(rep)
		if err != nil {
			return err
		}
		dst := g.states[gi*k : (gi+1)*k]
		src := o.states[i*k : (i+1)*k]
		for j := range dst {
			if err := dst[j].MergePartial(&src[j]); err != nil {
				return err
			}
		}
	}
	return nil
}

// finalTuple renders one group's output tuple: the projected grouping
// attributes followed by every aggregate's final value.
func (g *groupTable) finalTuple(gi int) (tuple.Tuple, error) {
	k := len(g.spec.aggs)
	states := g.states[gi*k : (gi+1)*k]
	vals := make([]value.Value, k)
	for i := range states {
		v, err := states[i].Final()
		if err != nil {
			return tuple.Tuple{}, err
		}
		vals[i] = v
	}
	if len(g.spec.groupCols) == 0 {
		return tuple.FromSlice(vals), nil
	}
	head, err := g.keys.tups[gi].Project(g.spec.groupCols)
	if err != nil {
		return tuple.Tuple{}, err
	}
	return head.Concat(tuple.FromSlice(vals)), nil
}

// output emits one result tuple per group, batch-wise.  With an empty
// grouping list the aggregate is global: exactly one output tuple, even on
// empty input (where AVG/MIN/MAX surface ErrEmptyAggregate from their fresh
// states).
func (g *groupTable) output(ctx *execCtx, emit EmitBatch) error {
	w := newBatchWriter(ctx, emit)
	if len(g.spec.groupCols) == 0 && g.len() == 0 {
		vals := make([]value.Value, len(g.spec.aggs))
		for i, sp := range g.spec.aggs {
			st := NewAggState(sp.Fn)
			v, err := st.Final()
			if err != nil {
				return err
			}
			vals[i] = v
		}
		if err := w.push(tuple.FromSlice(vals), 1); err != nil {
			return err
		}
		return w.flush()
	}
	for i := 0; i < g.len(); i++ {
		t, err := g.finalTuple(i)
		if err != nil {
			return err
		}
		if err := w.push(t, 1); err != nil {
			return err
		}
	}
	return w.flush()
}
