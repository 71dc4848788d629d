package plan

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"mra/internal/algebra"
	"mra/internal/value"
)

// TestIntegerSumIsExact pins AggState's integer half against math/big: over
// random chunks near the int64 edges, with multiplicities up to 2^40, SUM is
// the exact sum when it fits an int64 and ErrOverflow when it does not, AVG
// is the exact sum rounded once and divided, and both are the same whether
// the chunks are added serially or into two partial states that merge.
func TestIntegerSumIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	edges := []int64{math.MinInt64, math.MaxInt64, 1 << 62, -(1 << 62), 0, 1, -1}
	for round := 0; round < 2000; round++ {
		n := rng.Intn(8)
		vals, counts := make([]int64, n), make([]uint64, n)
		want := new(big.Int)
		var total uint64
		for i := range vals {
			switch rng.Intn(3) {
			case 0:
				vals[i] = edges[rng.Intn(len(edges))]
			case 1:
				vals[i] = rng.Int63() - rng.Int63()
			default:
				vals[i] = rng.Int63n(100) - 50
			}
			counts[i] = uint64(rng.Intn(3))
			if rng.Intn(4) == 0 {
				counts[i] = uint64(rng.Int63n(1 << 40))
			}
			total += counts[i]
			term := new(big.Int).SetUint64(counts[i])
			want.Add(want, term.Mul(term, big.NewInt(vals[i])))
		}
		split := rng.Intn(n + 1)
		for _, fn := range []algebra.Aggregate{algebra.AggSum, algebra.AggAvg} {
			serial, left, right := NewAggState(fn), NewAggState(fn), NewAggState(fn)
			for i := range vals {
				v := value.NewInt(vals[i])
				if err := serial.Add(v, counts[i]); err != nil {
					t.Fatal(err)
				}
				part := &left
				if i >= split {
					part = &right
				}
				if err := part.Add(v, counts[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := left.MergePartial(&right); err != nil {
				t.Fatal(err)
			}
			for _, st := range []*AggState{&serial, &left} {
				got, err := st.Final()
				switch {
				case fn == algebra.AggAvg && total == 0:
					if !errors.Is(err, ErrEmptyAggregate) {
						t.Fatalf("round %d: AVG of nothing = %v, %v", round, got, err)
					}
				case fn == algebra.AggAvg:
					f, _ := new(big.Float).SetInt(want).Float64()
					if err != nil || got.Float() != f/float64(total) {
						t.Fatalf("round %d: AVG %v × %v = %v, %v; want %v", round, vals, counts, got, err, f/float64(total))
					}
				case !want.IsInt64():
					if !errors.Is(err, ErrOverflow) {
						t.Fatalf("round %d: SUM %v × %v = %v, %v; want ErrOverflow (exact %s)", round, vals, counts, got, err, want)
					}
				default:
					if err != nil || got.Int() != want.Int64() {
						t.Fatalf("round %d: SUM %v × %v = %v, %v; want %s", round, vals, counts, got, err, want)
					}
				}
			}
		}
	}
}
