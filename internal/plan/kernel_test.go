package plan

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mra/internal/algebra"
	"mra/internal/scalar"
	"mra/internal/tuple"
	"mra/internal/value"
)

// kernelPool is the value domain of the kernel oracles: nulls, NaNs with two
// payloads and a sign, ±Inf, ±0, integers on both sides of 2^53 (where an
// int64 and its float64 image part) and floats at ±2^63 (int64's edges),
// and the non-numeric kinds whose
// comparison with a number is a type error.
var kernelPool = []value.Value{
	value.Null,
	value.NewFloat(math.NaN()),
	value.NewFloat(math.Float64frombits(0x7ff8_0000_0000_0abc)),
	value.NewFloat(math.Float64frombits(0xfff8_0000_0000_0001)),
	value.NewFloat(math.Inf(1)),
	value.NewFloat(math.Inf(-1)),
	value.NewFloat(0),
	value.NewFloat(math.Copysign(0, -1)),
	value.NewFloat(1.5),
	value.NewFloat(5),
	value.NewFloat(1 << 53),
	value.NewFloat(1<<53 + 2),
	value.NewFloat(-(1 << 53)),
	value.NewFloat(0x1p63),
	value.NewFloat(-0x1p63),
	value.NewInt(0),
	value.NewInt(5),
	value.NewInt(-1),
	value.NewInt(1<<53 - 1),
	value.NewInt(1 << 53),
	value.NewInt(1<<53 + 1),
	value.NewInt(-(1<<53 + 1)),
	value.NewInt(math.MaxInt64),
	value.NewInt(math.MinInt64),
	value.NewString("5"),
	value.NewString("a"),
	value.NewBool(true),
}

// kernelValue draws a cell of a column: always numeric (or null) when the
// column is numeric, and now and then a string or boolean otherwise.
func kernelValue(rng *rand.Rand, numeric bool) value.Value {
	const nonNumeric = 3 // the pool's last entries
	if numeric || rng.Intn(20) != 0 {
		return kernelPool[rng.Intn(len(kernelPool)-nonNumeric)]
	}
	return kernelPool[len(kernelPool)-nonNumeric+rng.Intn(nonNumeric)]
}

// TestPropertyFilterKernelsMatchHolds is the oracle of the typed filter
// kernels: for random conjunctions of comparisons — every operator,
// attribute against constant on either side and attribute against
// attribute — over random batches of the kernel pool's values, row-view,
// columnar or both, with and without an input selection, at the usual
// batch sizes and at a few thousand rows, the refined
// selection must be the rows that pass every conjunct's Predicate.Holds in
// turn, and a failing refinement must fail with exactly the error the first
// failing Holds returns, conjunct by conjunct and row by row.  When no
// conjunct fails, the selection is also the rows the whole predicate holds
// for.
func TestPropertyFilterKernelsMatchHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	ops := []value.CompareOp{value.CmpEq, value.CmpNe, value.CmpLt, value.CmpLe, value.CmpGt, value.CmpGe}
	const arity = 3
	var failures, kept int
	for round := 0; round < 3000; round++ {
		rows := rng.Intn(150)
		if round%100 == 0 {
			rows = 4096 + rng.Intn(100) // far past the default batch size
		}
		numeric := make([]bool, arity)
		for c := range numeric {
			numeric[c] = rng.Intn(3) != 0
		}
		tuples := make([]tuple.Tuple, rows)
		cols := make([]value.Vec, arity)
		for r := range tuples {
			vals := make([]value.Value, arity)
			for c := range vals {
				vals[c] = kernelValue(rng, numeric[c])
				cols[c] = append(cols[c], vals[c])
			}
			tuples[r] = tuple.FromSlice(vals)
		}
		b := &Batch{Counts: make([]uint64, rows)}
		switch rng.Intn(3) {
		case 0:
			b.Tuples = tuples
		case 1:
			b.Cols = cols
		default:
			b.Tuples, b.Cols = tuples, cols
		}
		if rng.Intn(2) == 0 {
			b.Sel = []int32{}
			for r := 0; r < rows; r++ {
				if rng.Intn(3) != 0 {
					b.Sel = append(b.Sel, int32(r))
				}
			}
		}

		conjuncts := make([]scalar.Predicate, 1+rng.Intn(3))
		for i := range conjuncts {
			op := ops[rng.Intn(len(ops))]
			attr := scalar.NewAttr(rng.Intn(arity))
			switch rng.Intn(3) {
			case 0:
				conjuncts[i] = scalar.NewCompare(op, attr, scalar.NewConst(kernelValue(rng, rng.Intn(4) != 0)))
			case 1:
				conjuncts[i] = scalar.NewCompare(op, scalar.NewConst(kernelValue(rng, rng.Intn(4) != 0)), attr)
			default:
				conjuncts[i] = scalar.NewCompare(op, attr, scalar.NewAttr(rng.Intn(arity)))
			}
		}
		pred := scalar.NewAnd(conjuncts...)

		var want []int32
		for i := 0; i < b.Len(); i++ {
			want = append(want, int32(b.Row(i)))
		}
		var wantErr error
		for _, c := range conjuncts {
			var next []int32
			for _, r := range want {
				ok, err := c.Holds(tuples[r])
				if err != nil {
					wantErr = err
					break
				}
				if ok {
					next = append(next, r)
				}
			}
			if wantErr != nil {
				break
			}
			want = next
		}

		got, err := newSelector(pred).refine(b)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("round %d: %s over %v sel %v: error %v, want %v", round, pred, tuples, b.Sel, err, wantErr)
		}
		if wantErr != nil {
			failures++
			continue
		}
		if !slices.Equal(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("round %d: %s over %v sel %v: rows %v, want %v", round, pred, tuples, b.Sel, got, want)
		}
		for _, r := range got {
			if ok, err := pred.Holds(tuples[r]); !ok || err != nil {
				t.Fatalf("round %d: %s kept row %d %v, where Holds is %v, %v", round, pred, r, tuples[r], ok, err)
			}
		}
		kept += len(got)
	}
	if failures == 0 || kept == 0 {
		t.Fatalf("degenerate domain: %d failing rounds, %d kept rows", failures, kept)
	}
}

// TestKeylessFoldMatchesGroupPath pins the keyless Γ fold against the
// tuple-wise group path it replaces: over random row-view and columnar
// batches with and without selections, folding must leave the same one
// group, with bit-identical aggregate values or the same error, charge the
// memory gauge the same bytes, and found no group for input with no live
// row.
func TestKeylessFoldMatchesGroupPath(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	fns := []algebra.Aggregate{algebra.AggCount, algebra.AggSum, algebra.AggAvg, algebra.AggMin, algebra.AggMax}
	const arity = 2
	for round := 0; round < 500; round++ {
		spec := groupSpec{}
		for i := 1 + rng.Intn(3); i > 0; i-- {
			spec.aggs = append(spec.aggs, algebra.AggSpec{Fn: fns[rng.Intn(len(fns))], Col: rng.Intn(arity)})
		}
		numeric := rng.Intn(4) != 0
		fold := newGroupTable(spec, NewMemoryGauge(0))
		ref := newGroupTable(spec, NewMemoryGauge(0))
		var foldErr, refErr error
		for bi := rng.Intn(4); bi > 0; bi-- {
			rows := rng.Intn(40)
			b := &Batch{Counts: make([]uint64, rows), Cols: make([]value.Vec, arity)}
			for r := range b.Counts {
				b.Counts[r] = 1 + uint64(rng.Intn(3))
				for c := range b.Cols {
					b.Cols[c] = append(b.Cols[c], kernelValue(rng, numeric))
				}
			}
			if rng.Intn(2) == 0 {
				b.Sel = []int32{}
				for r := 0; r < rows; r++ {
					if rng.Intn(2) == 0 {
						b.Sel = append(b.Sel, int32(r))
					}
				}
			}
			if rng.Intn(2) == 0 {
				ts := make([]tuple.Tuple, rows)
				for r := range ts {
					ts[r] = b.TupleAt(r)
				}
				b.Tuples, b.Cols = ts, nil
			}
			if foldErr == nil {
				foldErr = fold.addBatch(b)
			}
			for i := 0; i < b.Len() && refErr == nil; i++ {
				r := b.Row(i)
				t := b.TupleAt(r)
				var gi int
				if gi, refErr = ref.findOrCreate(t); refErr != nil {
					break
				}
				for j, sp := range spec.aggs {
					if refErr = ref.states[gi*len(spec.aggs)+j].Add(t.At(sp.Col), b.Counts[r]); refErr != nil {
						break
					}
				}
			}
		}
		if fmt.Sprint(foldErr) != fmt.Sprint(refErr) {
			t.Fatalf("round %d %v: fold error %v, group path %v", round, spec.aggs, foldErr, refErr)
		}
		if fold.len() != ref.len() || fold.mem.Used() != ref.mem.Used() {
			t.Fatalf("round %d: fold has %d groups charging %d bytes, group path %d charging %d",
				round, fold.len(), fold.mem.Used(), ref.len(), ref.mem.Used())
		}
		if foldErr != nil || fold.len() == 0 {
			continue
		}
		got, gerr := fold.finalTuple(0)
		want, werr := ref.finalTuple(0)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || gerr == nil && got.String() != want.String() {
			t.Fatalf("round %d %v: fold %v (%v), group path %v (%v)", round, spec.aggs, got, gerr, want, werr)
		}
	}
}
