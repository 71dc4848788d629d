package plan

import (
	"math"
	"math/rand"
	"testing"

	"mra/internal/multiset"
	"mra/internal/schema"
	"mra/internal/tuple"
	"mra/internal/value"
)

// TestPropertyUniqueSeenSetProbesColumns is the oracle of Unique's
// column-keyed seen-set: random batches over nulls, NaN payloads, ±0, 1 vs
// 1.0 and strings, with and without a selection and with duplicates within
// and across batches, must yield the same first sightings, in the same order,
// whether the batches arrive columnar (probed off the column vectors) or as
// the row view of the same rows, and as many as a relation holds distinct
// tuples after adding every live row.
func TestPropertyUniqueSeenSetProbesColumns(t *testing.T) {
	pool := []value.Value{
		value.Null,
		value.NewFloat(math.NaN()),
		value.NewFloat(math.Float64frombits(math.Float64bits(math.NaN()) | 0xbeef)),
		value.NewFloat(0),
		value.NewFloat(math.Copysign(0, -1)),
		value.NewInt(1),
		value.NewFloat(1),
		value.NewString(""),
		value.NewString("a"),
	}
	rng := rand.New(rand.NewSource(31))
	for round := 0; round < 200; round++ {
		arity := 1 + rng.Intn(3)
		byCols, byRows := newTupleSet(0), newTupleSet(0)
		attrs := make([]schema.Attribute, arity)
		all := multiset.New(schema.Anonymous(attrs...))
		for bi := 1 + rng.Intn(5); bi > 0; bi-- {
			rows := rng.Intn(20)
			cb := &Batch{Counts: make([]uint64, rows), Cols: make([]value.Vec, arity)}
			for c := range cb.Cols {
				cb.Cols[c] = make(value.Vec, rows)
				for r := range cb.Cols[c] {
					cb.Cols[c][r] = pool[rng.Intn(len(pool))]
				}
			}
			if rng.Intn(2) == 0 {
				cb.Sel = []int32{}
				for r := 0; r < rows; r++ {
					if rng.Intn(2) == 0 {
						cb.Sel = append(cb.Sel, int32(r))
					}
				}
			}
			rb := &Batch{Counts: cb.Counts, Sel: cb.Sel, Tuples: make([]tuple.Tuple, rows)}
			for r := range rb.Tuples {
				rb.Tuples[r] = cb.TupleAt(r)
			}
			for i := 0; i < cb.Len(); i++ {
				r := cb.Row(i)
				ct, cfirst := byCols.insert(cb, r)
				rt, rfirst := byRows.insert(rb, r)
				all.Add(rb.Tuples[r], 1)
				if cfirst != rfirst || cfirst && !ct.Equal(rt) {
					t.Fatalf("round %d row %v: columnar first=%v %v, row-wise first=%v %v",
						round, rb.Tuples[r], cfirst, ct, rfirst, rt)
				}
			}
		}
		if byCols.len() != byRows.len() || byCols.len() != all.DistinctCount() {
			t.Fatalf("round %d: %d distinct columnar, %d row-wise, %d in a relation",
				round, byCols.len(), byRows.len(), all.DistinctCount())
		}
	}
}
