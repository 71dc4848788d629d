package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"mra/internal/multiset"
	"mra/internal/schema"
	"mra/internal/tuple"
	"mra/internal/value"
)

func testSchema() schema.Relation {
	return schema.NewRelation("t",
		schema.Attribute{Name: "a", Type: value.KindInt},
		schema.Attribute{Name: "b", Type: value.KindInt},
	)
}

func TestResolve(t *testing.T) {
	if got := Resolve(4); got != 4 {
		t.Errorf("Resolve(4) = %d", got)
	}
	if got := Resolve(0); got < 1 {
		t.Errorf("Resolve(0) = %d, want auto-detected >= 1", got)
	}
	if got := Resolve(-3); got < 1 {
		t.Errorf("Resolve(-3) = %d, want auto-detected >= 1", got)
	}
	if got := Resolve(1 << 20); got != maxWorkers {
		t.Errorf("Resolve(huge) = %d, want %d", got, maxWorkers)
	}
}

// gang runs task once per worker of a gang of the given width through
// Gather, the one gang entry, and returns the gang's error.
func gang(ctx context.Context, workers int, task func(ctx context.Context, worker int) error) error {
	_, err := Gather(ctx, workers, func(ctx context.Context, w int) (struct{}, error) {
		return struct{}{}, task(ctx, w)
	})
	return err
}

// TestPoolRunsEveryWorker checks that every worker index of a gang runs
// exactly once and that each worker's result lands in its own slot.
func TestPoolRunsEveryWorker(t *testing.T) {
	for _, w := range []int{1, 2, 7} {
		var ran [64]atomic.Int32
		out, err := Gather(context.Background(), w, func(_ context.Context, worker int) (int, error) {
			ran[worker].Add(1)
			return worker, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != w {
			t.Fatalf("workers=%d: %d results", w, len(out))
		}
		for i := 0; i < w; i++ {
			if got := ran[i].Load(); got != 1 {
				t.Errorf("workers=%d: worker %d ran %d times", w, i, got)
			}
			if out[i] != i {
				t.Errorf("workers=%d: slot %d holds worker %d's result", w, i, out[i])
			}
		}
	}
}

// TestPoolErrorDeterminism checks the error of the lowest-numbered failing
// worker is returned, regardless of goroutine scheduling.
func TestPoolErrorDeterminism(t *testing.T) {
	for round := 0; round < 20; round++ {
		err := gang(context.Background(), 8, func(_ context.Context, worker int) error {
			if worker >= 3 {
				return fmt.Errorf("worker %d failed", worker)
			}
			return nil
		})
		if err == nil || err.Error() != "worker 3 failed" {
			t.Fatalf("round %d: err = %v, want worker 3's", round, err)
		}
	}
}

// TestExchangeSumsPartials checks the fundamental exchange identity: the
// merge of per-worker partials over a morsel split of the input equals the
// serial result, multiplicities included — even when workers produce
// overlapping output tuples.
func TestExchangeSumsPartials(t *testing.T) {
	s := testSchema()
	in := multiset.New(s)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		in.Add(tuple.Ints(int64(rng.Intn(20)), int64(rng.Intn(5))), uint64(1+rng.Intn(3)))
	}

	serial := multiset.New(s)
	in.Each(func(tp tuple.Tuple, n uint64) bool {
		serial.Add(tp, n)
		return true
	})

	for _, w := range []int{1, 2, 4, 8} {
		q := NewMorselQueue(in.EntrySpan(), 7)
		parts, err := Gather(context.Background(), w, func(_ context.Context, _ int) (*multiset.Relation, error) {
			into := multiset.NewWithCapacity(s, 16)
			for {
				lo, hi, ok := q.Next()
				if !ok {
					return into, nil
				}
				in.EachBatch(lo, hi, 16, func(tuples []tuple.Tuple, counts []uint64) bool {
					into.AddBatch(tuples, counts)
					return true
				})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		merged := multiset.NewWithCapacity(s, 64)
		for _, p := range parts {
			merged.ApplyDelta(p, nil)
		}
		if !merged.Equal(serial) {
			t.Fatalf("workers=%d: merged %s != serial %s", w, merged, serial)
		}
		// Streaming consumption must sum to the same multi-set.
		streamed := multiset.New(s)
		for _, p := range parts {
			p.Each(func(tp tuple.Tuple, n uint64) bool {
				streamed.Add(tp, n)
				return true
			})
		}
		if !streamed.Equal(serial) {
			t.Fatalf("workers=%d: streamed %s != serial %s", w, streamed, serial)
		}
	}
}

// TestExchangePropagatesErrors checks a failing worker aborts the exchange
// while the other partials remain intact for accounting.
func TestExchangePropagatesErrors(t *testing.T) {
	s := testSchema()
	boom := errors.New("boom")
	parts, err := Gather(context.Background(), 4, func(_ context.Context, worker int) (*multiset.Relation, error) {
		if worker == 2 {
			return nil, boom
		}
		into := multiset.New(s)
		into.Add(tuple.Ints(int64(worker), 0), 1)
		return into, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(parts) != 4 || parts[0] == nil || parts[0].Cardinality() != 1 {
		t.Errorf("surviving partials should be returned for accounting")
	}
}

// TestMorselQueueDisjointCover checks the queue's claims are disjoint,
// in-range, and collectively cover [0, total) exactly once — under serial use
// and under concurrent stealing — for several morsel sizes, including sizes
// that do not divide the total and sizes larger than the total.
func TestMorselQueueDisjointCover(t *testing.T) {
	for _, tc := range []struct{ total, size int }{
		{0, 16}, {1, 16}, {100, 16}, {100, 1}, {100, 7}, {5, 100}, {4096, 0},
	} {
		q := NewMorselQueue(tc.total, tc.size)
		covered := make([]bool, tc.total)
		for {
			lo, hi, ok := q.Next()
			if !ok {
				break
			}
			if lo < 0 || hi > tc.total || lo >= hi {
				t.Fatalf("total=%d size=%d: bad morsel [%d,%d)", tc.total, tc.size, lo, hi)
			}
			for i := lo; i < hi; i++ {
				if covered[i] {
					t.Fatalf("total=%d size=%d: index %d claimed twice", tc.total, tc.size, i)
				}
				covered[i] = true
			}
		}
		for i, c := range covered {
			if !c {
				t.Fatalf("total=%d size=%d: index %d never claimed", tc.total, tc.size, i)
			}
		}
		if _, _, ok := q.Next(); ok {
			t.Fatalf("total=%d size=%d: drained queue handed out another morsel", tc.total, tc.size)
		}
	}
}

// TestMorselQueueConcurrentStealing checks concurrent workers drain the queue
// without overlap or loss: the claimed ranges sum to exactly the total.
func TestMorselQueueConcurrentStealing(t *testing.T) {
	const total, size, workers = 100000, 64, 8
	q := NewMorselQueue(total, size)
	var claimed atomic.Uint64
	var owned [workers]int
	if err := gang(context.Background(), workers, func(_ context.Context, w int) error {
		for {
			lo, hi, ok := q.Next()
			if !ok {
				return nil
			}
			claimed.Add(uint64(hi - lo))
			owned[w] += hi - lo
		}
	}); err != nil {
		t.Fatal(err)
	}
	if claimed.Load() != total {
		t.Fatalf("claimed %d indices, want %d", claimed.Load(), total)
	}
	// Stealing means no worker is required to own a fixed 1/workers share,
	// but collectively the gang must account for everything.
	sum := 0
	for _, n := range owned {
		sum += n
	}
	if sum != total {
		t.Fatalf("per-worker ownership sums to %d, want %d", sum, total)
	}
}
