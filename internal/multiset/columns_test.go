package multiset

import (
	"math"
	"math/rand"
	"testing"

	"mra/internal/tuple"
	"mra/internal/value"
)

// adversarialValues are the values whose equality and hashing differ from
// their bit patterns: null, two NaN payloads (one value), ±0 (one value), 1
// and 1.0 (one value), and strings, including the empty one.
var adversarialValues = []value.Value{
	value.Null,
	value.NewFloat(math.NaN()),
	value.NewFloat(math.Float64frombits(math.Float64bits(math.NaN()) | 0xbeef)),
	value.NewFloat(0),
	value.NewFloat(math.Copysign(0, -1)),
	value.NewInt(0),
	value.NewInt(1),
	value.NewFloat(1),
	value.NewInt(math.MaxInt64),
	value.NewString(""),
	value.NewString("a"),
	value.NewString("ab"),
}

// randomColumns returns a columnar batch of up to 24 rows of the given arity
// drawn from adversarialValues, multiplicities 0–3 (zero counts must be
// skipped), and a selection that is nil, empty, or a random ascending subset.
func randomColumns(rng *rand.Rand, arity int) (cols []value.Vec, counts []uint64, sel []int32) {
	rows := rng.Intn(25)
	cols = make([]value.Vec, arity)
	for c := range cols {
		cols[c] = make(value.Vec, rows)
		for r := range cols[c] {
			cols[c][r] = adversarialValues[rng.Intn(len(adversarialValues))]
		}
	}
	counts = make([]uint64, rows)
	for r := range counts {
		counts[r] = uint64(rng.Intn(4))
	}
	switch rng.Intn(3) {
	case 0:
		sel = []int32{}
		for r := 0; r < rows; r++ {
			if rng.Intn(2) == 0 {
				sel = append(sel, int32(r))
			}
		}
	case 1:
		if rows > 0 && rng.Intn(4) == 0 {
			sel = []int32{}
		}
	}
	return cols, counts, sel
}

// rowOf builds the tuple of row r of cols.
func rowOf(cols []value.Vec, r int) tuple.Tuple {
	vals := make([]value.Value, len(cols))
	for c := range cols {
		vals[c] = cols[c][r]
	}
	return tuple.FromSlice(vals)
}

// TestPropertyAddColumnsMatchesAdd is the oracle of the column-keyed sink:
// random columnar batches — with and without a selection, with duplicates
// within and across batches, over nulls, NaNs, ±0, 1 vs 1.0 and strings —
// added through AddColumns must leave the same bag as adding every live row's
// tuple with Add, with equal Cardinality and DistinctCount.  Removals between
// batches leave tombstones for later rows to revive, and a clone taken half
// way must keep its bag while the original grows.  Every row's column hash is
// its tuple's hash, bit for bit.
func TestPropertyAddColumnsMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for round := 0; round < 300; round++ {
		arity := 1 + rng.Intn(3)
		byCols, byRows := New(intSchema(arity)), New(intSchema(arity))
		var frozen, frozenWant *Relation
		batches := 1 + rng.Intn(6)
		for bi := 0; bi < batches; bi++ {
			cols, counts, sel := randomColumns(rng, arity)
			byCols.AddColumns(cols, counts, sel)
			live := sel
			if live == nil {
				for r := range counts {
					live = append(live, int32(r))
				}
			}
			for _, r := range live {
				tp := rowOf(cols, int(r))
				if got, want := tuple.HashRow(cols, int(r)), tp.Hash(); got != want {
					t.Fatalf("round %d: row %v: HashRow %x, Hash %x", round, tp, got, want)
				}
				byRows.Add(tp, counts[r])
			}
			if rng.Intn(3) == 0 && len(live) > 0 {
				tp := rowOf(cols, int(live[rng.Intn(len(live))]))
				byCols.Remove(tp, 2)
				byRows.Remove(tp, 2)
			}
			if frozen == nil && rng.Intn(3) == 0 {
				frozen, frozenWant = byCols.Clone(), byRows.Clone()
			}
			if !byCols.Equal(byRows) || !byRows.Equal(byCols) ||
				byCols.Cardinality() != byRows.Cardinality() || byCols.DistinctCount() != byRows.DistinctCount() {
				t.Fatalf("round %d batch %d: AddColumns %s (|%d|, %d distinct), Add %s (|%d|, %d distinct)",
					round, bi, byCols, byCols.Cardinality(), byCols.DistinctCount(),
					byRows, byRows.Cardinality(), byRows.DistinctCount())
			}
		}
		if frozen != nil && !frozen.Equal(frozenWant) {
			t.Fatalf("round %d: a clone changed under AddColumns: %s, want %s", round, frozen, frozenWant)
		}
	}
}
