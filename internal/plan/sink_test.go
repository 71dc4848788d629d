package plan

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"mra/internal/multiset"
	"mra/internal/schema"
	"mra/internal/tuple"
	"mra/internal/value"
)

// sinkPool is the value set of the hash-table property: nulls, NaN payloads,
// ±0, 1 vs 1.0, 2^53 ± 1 beside 2^53.0, and strings.
func sinkPool() []value.Value {
	return []value.Value{
		value.Null,
		value.NewFloat(math.NaN()),
		value.NewFloat(math.Float64frombits(math.Float64bits(math.NaN()) | 0xbeef)),
		value.NewFloat(0),
		value.NewFloat(math.Copysign(0, -1)),
		value.NewInt(1),
		value.NewFloat(1),
		value.NewInt(1<<53 - 1),
		value.NewInt(1 << 53),
		value.NewInt(1<<53 + 1),
		value.NewFloat(1 << 53),
		value.NewString(""),
		value.NewString("a"),
	}
}

// randomSinkBatch returns a columnar batch of the given arity over pool, with
// a random selection half the time, and the row view of the same rows.
func randomSinkBatch(rng *rand.Rand, pool []value.Value, arity, rows int) (cb, rb *Batch) {
	cb = &Batch{Counts: make([]uint64, rows), Cols: make([]value.Vec, arity)}
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
	rb = &Batch{Counts: cb.Counts, Sel: cb.Sel, Tuples: make([]tuple.Tuple, rows)}
	for r := range rb.Tuples {
		rb.Tuples[r] = cb.TupleAt(r)
	}
	return cb, rb
}

// matches returns every entry whose key equals row r of b on cols, by
// walking the row's chain.
func (t *hashTable) matches(b *Batch, r int, cols []int) []int32 {
	var out []int32
	for e := t.nextRow(t.chain(hashRow(b, r, cols)), b, r, cols); e >= 0; e = t.nextRow(t.next[e], b, r, cols) {
		out = append(out, e)
	}
	slices.Sort(out)
	return out
}

// TestPropertyUniqueSeenSetProbesColumns is the oracle of the one hash table
// (hashTable) on random batches over nulls, NaN payloads, ±0, 1 vs 1.0,
// 2^53 ± 1 and strings, with and without a selection and with duplicates
// within and across batches:
//   - as Unique's seen-set, keyed on every column, it must yield the same
//     first sightings, in the same order, whether the batches arrive columnar
//     (probed off the column vectors) or as the row view of the same rows,
//     and as many as a relation holds distinct tuples after adding every
//     live row;
//   - probed on columns that differ from its key columns, as a join probes,
//     a chain walk must find exactly the entries whose keys a brute-force
//     scan finds equal, in both batch shapes.
func TestPropertyUniqueSeenSetProbesColumns(t *testing.T) {
	pool := sinkPool()
	rng := rand.New(rand.NewSource(31))
	for round := 0; round < 200; round++ {
		arity := 1 + rng.Intn(3)
		cols := allCols(arity)
		byCols, byRows := newHashTable(cols), newHashTable(cols)
		attrs := make([]schema.Attribute, arity)
		all := multiset.New(schema.Anonymous(attrs...))
		for bi := 1 + rng.Intn(5); bi > 0; bi-- {
			cb, rb := randomSinkBatch(rng, pool, arity, rng.Intn(20))
			for i := 0; i < cb.Len(); i++ {
				r := cb.Row(i)
				ce, cfirst := byCols.rowEntry(cb, r)
				re, rfirst := byRows.rowEntry(rb, r)
				all.Add(rb.Tuples[r], 1)
				if ct, rt := byCols.tups[ce], byRows.tups[re]; cfirst != rfirst || !ct.Equal(rt) {
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

	for round := 0; round < 200; round++ {
		// Build tuples of arity 3 keyed on 1–3 distinct columns; probe rows
		// carry the key one column to the right, after a filler column.
		arity := 3
		key := rng.Perm(arity)[:1+rng.Intn(arity)]
		probeCols := make([]int, len(key))
		for k, c := range key {
			probeCols[k] = c + 1
		}
		var tups []tuple.Tuple
		for n := rng.Intn(40); n > 0; n-- {
			vals := make([]value.Value, arity)
			for c := range vals {
				vals[c] = pool[rng.Intn(len(pool))]
			}
			tups = append(tups, tuple.New(vals...))
		}
		serial := newHashTable(key)
		for _, tup := range tups {
			serial.insert(tup)
		}
		for bi := 1 + rng.Intn(3); bi > 0; bi-- {
			cb, rb := randomSinkBatch(rng, pool, arity+1, rng.Intn(20))
			// Reuse build tuples' keys so probes hit.
			for r := range cb.Counts {
				if len(tups) > 0 && rng.Intn(2) == 0 {
					src := tups[rng.Intn(len(tups))]
					for k, c := range key {
						cb.Cols[probeCols[k]][r] = src.At(c)
					}
					rb.Tuples[r] = cb.TupleAt(r)
				}
			}
			for i := 0; i < cb.Len(); i++ {
				r := cb.Row(i)
				var want []int32
				for e, tup := range tups {
					eq := true
					for k, c := range key {
						eq = eq && cb.Cols[probeCols[k]][r].Equal(tup.At(c))
					}
					if eq {
						want = append(want, int32(e))
					}
				}
				for _, got := range [][]int32{
					serial.matches(cb, r, probeCols), serial.matches(rb, r, probeCols),
				} {
					if !slices.Equal(got, want) {
						t.Fatalf("round %d key %v row %v: chain walk found entries %v, brute force %v",
							round, key, rb.Tuples[r], got, want)
					}
				}
			}
		}
	}
}
