package plan

import (
	"math"
	"math/rand"
	"testing"

	"mra/internal/scalar"
	"mra/internal/tuple"
	"mra/internal/value"
)

// colBatch builds a columnar-only test batch from rows of int values and their
// multiplicities.
func colBatch(rows [][]int64, counts []uint64) *Batch {
	if len(rows) == 0 {
		return &Batch{Counts: counts}
	}
	cols := make([]value.Vec, len(rows[0]))
	for c := range cols {
		for _, row := range rows {
			cols[c] = append(cols[c], value.NewInt(row[c]))
		}
	}
	return &Batch{Counts: counts, Cols: cols}
}

// TestBatchSelectionViews pins the selection-vector view of Batch: Len, Row,
// Total and forEach must cover exactly the live rows — all rows under a nil
// selection, none under an empty one, and the listed physical rows otherwise —
// and TupleAt must materialise columnar rows correctly.
func TestBatchSelectionViews(t *testing.T) {
	b := colBatch([][]int64{{1, 10}, {2, 20}, {3, 30}, {4, 40}}, []uint64{1, 2, 3, 4})

	collect := func(b *Batch) (tuples []tuple.Tuple, counts []uint64) {
		if err := b.forEach(func(t tuple.Tuple, n uint64) error {
			tuples = append(tuples, t)
			counts = append(counts, n)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return
	}

	// Nil selection: every physical row is live.
	if b.Len() != 4 || b.Total() != 10 {
		t.Fatalf("full batch: Len=%d Total=%d, want 4, 10", b.Len(), b.Total())
	}
	tuples, counts := collect(b)
	if len(tuples) != 4 || !tuples[2].Equal(tuple.Ints(3, 30)) || counts[3] != 4 {
		t.Fatalf("full batch forEach: tuples=%v counts=%v", tuples, counts)
	}

	// Empty selection: no live rows, zero total, forEach never fires.
	b.Sel = []int32{}
	if b.Len() != 0 || b.Total() != 0 {
		t.Fatalf("empty selection: Len=%d Total=%d, want 0, 0", b.Len(), b.Total())
	}
	if tuples, _ := collect(b); len(tuples) != 0 {
		t.Fatalf("empty selection forEach visited %d rows", len(tuples))
	}

	// Partial selection: only the listed physical rows, in order.
	b.Sel = []int32{1, 3}
	if b.Len() != 2 || b.Total() != 6 {
		t.Fatalf("partial selection: Len=%d Total=%d, want 2, 6", b.Len(), b.Total())
	}
	if got := b.Row(1); got != 3 {
		t.Fatalf("Row(1) = %d, want physical row 3", got)
	}
	tuples, counts = collect(b)
	if len(tuples) != 2 || !tuples[0].Equal(tuple.Ints(2, 20)) ||
		!tuples[1].Equal(tuple.Ints(4, 40)) || counts[0] != 2 || counts[1] != 4 {
		t.Fatalf("partial selection forEach: tuples=%v counts=%v", tuples, counts)
	}
}

// TestBatchRepeatedChunks pins the multi-chunk rule under selections: the same
// tuple may occupy several live physical rows of one batch, and consumers see
// one chunk per live row — multiplicities summed by the consumer, never
// collapsed by the batch.
func TestBatchRepeatedChunks(t *testing.T) {
	b := colBatch([][]int64{{7, 7}, {7, 7}, {1, 1}, {7, 7}}, []uint64{2, 3, 1, 5})
	b.Sel = []int32{0, 1, 3} // three live chunks of the same tuple

	var chunks int
	var total uint64
	if err := b.forEach(func(tp tuple.Tuple, n uint64) error {
		if !tp.Equal(tuple.Ints(7, 7)) {
			t.Fatalf("unexpected live tuple %s", tp)
		}
		chunks++
		total += n
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if chunks != 3 || total != 10 {
		t.Fatalf("repeated chunks: %d chunks totalling %d, want 3 totalling 10", chunks, total)
	}
	if b.Total() != 10 {
		t.Fatalf("Total = %d, want 10", b.Total())
	}
}

// TestCompileVecPred pins the kernel compiler's coverage: conjunctions of
// attribute/constant and attribute/attribute comparisons compile (with the
// constant-on-the-left form flipped), the always-true predicate compiles to no
// kernels, and any other shape is reported uncompilable so the filter falls
// back to row-wise evaluation.
func TestCompileVecPred(t *testing.T) {
	attr, c3 := scalar.NewAttr(0), scalar.NewConst(value.NewInt(3))

	if ks, ok := compileVecPred(scalar.True{}); !ok || len(ks) != 0 {
		t.Errorf("True: kernels=%v ok=%v, want empty pass-through", ks, ok)
	}
	conj := scalar.NewAnd(
		scalar.NewCompare(value.CmpGe, attr, c3),
		scalar.Eq(0, 1),
		scalar.NewCompare(value.CmpLt, c3, scalar.NewAttr(1)), // flips to %2 > 3
	)
	ks, ok := compileVecPred(conj)
	if !ok || len(ks) != 3 {
		t.Fatalf("conjunction: kernels=%v ok=%v, want 3 kernels", ks, ok)
	}
	if ks[2].op != value.CmpGt || ks[2].lcol != 1 || ks[2].rcol != -1 {
		t.Errorf("const-left compare compiled to %+v, want flipped %%2 > 3", ks[2])
	}
	uncompilable := []scalar.Predicate{
		scalar.Or{Left: scalar.Eq(0, 1), Right: scalar.Eq(0, 1)},
		scalar.Not{Operand: scalar.Eq(0, 1)},
		scalar.NewCompare(value.CmpLe,
			scalar.NewArith(value.OpAdd, attr, scalar.NewAttr(1)), c3),
	}
	for _, p := range uncompilable {
		if _, ok := compileVecPred(p); ok {
			t.Errorf("%s: compiled, want row-wise fallback", p)
		}
	}
}

// TestVecCmpApply pins the kernel loop over selections: it tests only the
// rows its input selection lists, and a kernel that kills every row yields
// an empty (non-nil semantics handled by the caller) selection.
func TestVecCmpApply(t *testing.T) {
	b := colBatch([][]int64{{1, 5}, {2, 5}, {3, 5}, {4, 5}}, []uint64{1, 1, 1, 1})

	ge2 := newVecCmp(value.CmpGe, 0, -1, value.NewInt(2))
	sel, err := ge2.apply(b, []int32{0, 1, 2, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 3 || sel[0] != 1 || sel[2] != 3 {
		t.Fatalf("ge2 over all rows: sel=%v, want [1 2 3]", sel)
	}

	lt4 := newVecCmp(value.CmpLt, 0, -1, value.NewInt(4))
	sel, err = lt4.apply(b, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0] != 1 || sel[1] != 2 {
		t.Fatalf("lt4 over refined selection: sel=%v, want [1 2]", sel)
	}

	none := newVecCmp(value.CmpGt, 1, -1, value.NewInt(5))
	sel, err = none.apply(b, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 0 {
		t.Fatalf("killing kernel left sel=%v, want empty", sel)
	}

	eq := newVecCmp(value.CmpEq, 0, 1, value.Null)
	b2 := colBatch([][]int64{{5, 5}, {2, 5}, {5, 5}}, []uint64{1, 1, 1})
	sel, err = eq.apply(b2, []int32{0, 1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0] != 0 || sel[1] != 2 {
		t.Fatalf("attr-attr kernel: sel=%v, want [0 2]", sel)
	}
}

// TestHashRowOnMatchesTupleHashOn pins the hash invariant partition exchanges
// and merges depend on: the columnar key hash of a row is bit for bit the
// tuple hash of the same row over the same key columns, for every value kind
// (NaN payloads and ±0 included) and for repeated and reordered keys.
func TestHashRowOnMatchesTupleHashOn(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	randValue := func() value.Value {
		switch rng.Intn(9) {
		case 0:
			return value.Null
		case 1:
			return value.NewInt(rng.Int63n(7) - 3)
		case 2:
			return value.NewInt(rng.Int63())
		case 3:
			return value.NewFloat(rng.NormFloat64())
		case 4:
			return value.NewFloat(float64(rng.Intn(5))) // equal to an int
		case 5:
			return value.NewFloat(math.Copysign(0, -1))
		case 6:
			return value.NewFloat(math.Float64frombits(0x7ff8_0000_0000_0000 | rng.Uint64()>>13))
		case 7:
			return value.NewBool(rng.Intn(2) == 0)
		default:
			b := make([]byte, rng.Intn(20))
			rng.Read(b)
			return value.NewString(string(b))
		}
	}
	const rows, arity = 200, 5
	cols := make([]value.Vec, arity)
	tuples := make([]tuple.Tuple, rows)
	for r := range tuples {
		vals := make([]value.Value, arity)
		for c := range vals {
			vals[c] = randValue()
			cols[c] = append(cols[c], vals[c])
		}
		tuples[r] = tuple.FromSlice(vals)
	}
	for trial := 0; trial < 50; trial++ {
		keys := make([]int, 1+rng.Intn(2*arity))
		keyVecs := make([]value.Vec, len(keys))
		for i := range keys {
			keys[i] = rng.Intn(arity)
			keyVecs[i] = cols[keys[i]]
		}
		for r, tp := range tuples {
			if got, want := tuple.HashRow(keyVecs, r), tp.HashOn(keys); got != want {
				t.Fatalf("keys %v row %d %v: tuple.HashRow %x, tuple.HashOn %x", keys, r, tp, got, want)
			}
		}
	}
	all := []int{0, 1, 2, 3, 4}
	for r, tp := range tuples {
		if tuple.HashRow(cols, r) != tp.Hash() || tp.HashOn(all) != tp.Hash() {
			t.Fatalf("row %d %v: whole-row hashes disagree", r, tp)
		}
	}
}
