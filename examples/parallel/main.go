// Command parallel demonstrates the morsel-driven parallel runtime on a
// skewed-key workload.
//
// The workload is a star-schema join whose fact keys follow a Zipf
// distribution: a handful of hot keys carry most of the probe work.  The
// gang's workers share one queue of fixed-size entry ranges (morsels) per
// scan: the gang collectively visits every entry exactly once, and a worker
// bogged down in a hot range simply stops claiming while the others drain the
// rest.  Bag semantics make any disjoint split of a scan exact —
// multiplicities sum across partitions — which is what lets the queue
// rebalance freely.
//
// On a single hardware thread (like CI containers) the gang cannot shorten
// the critical path and the parallel row shows scheduling overhead only; on
// multi-core hardware the rebalancing pays off.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"mra"
	"mra/internal/algebra"
	"mra/internal/scalar"
	"mra/internal/value"
)

func main() {
	// A Zipf-skewed join workload: 20000 fact rows over 100 dimension keys,
	// exponent 1.4 — key 0 alone draws a large share of the rows.
	db := mra.Open()
	db.MustCreateRelation("fact", mra.Col("key", mra.Int), mra.Col("payload", mra.Int))
	db.MustCreateRelation("dim", mra.Col("key", mra.Int), mra.Col("attr", mra.Int))
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, 1.4, 1, 99)
	fact := make([][]any, 20000)
	for i := range fact {
		fact[i] = []any{int64(zipf.Uint64()), rng.Int63n(1 << 15)}
	}
	dim := make([][]any, 100)
	for i := range dim {
		dim[i] = []any{i, i * 10}
	}
	if err := db.InsertValues("fact", fact...); err != nil {
		log.Fatal(err)
	}
	if err := db.InsertValues("dim", dim...); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fact: %d rows, dim: %d rows — Zipf(1.4) keys\n\n", db.Cardinality("fact"), db.Cardinality("dim"))

	// Two shapes the planner parallelises: a scan pipeline (σ then π) and a
	// hash join probing the skewed side against a shared build table.
	pred := scalar.NewCompare(value.CmpGe, scalar.NewAttr(1), scalar.NewConst(value.NewInt(1<<14)))
	queries := []struct {
		name string
		expr algebra.Expr
	}{
		{"pipeline σ/π over skewed scan",
			algebra.NewProject([]int{0}, algebra.NewSelect(pred, algebra.NewRel("fact")))},
		{"hash join, skewed probe side",
			algebra.NewJoin(scalar.Eq(0, 2), algebra.NewRel("fact"), algebra.NewRel("dim"))},
	}

	// The same queries serially and on 4 workers with morsel stealing.
	const reps = 20
	for _, q := range queries {
		fmt.Printf("== %s ==\n", q.name)
		var serialLen int
		var serial time.Duration
		for _, workers := range []int{1, 4} {
			db.SetWorkers(workers)
			// Warm up once, then time reps evaluations.
			if _, err := db.QueryExpr(q.expr); err != nil {
				log.Fatal(err)
			}
			start := time.Now()
			var n int
			for r := 0; r < reps; r++ {
				res, err := db.QueryExpr(q.expr)
				if err != nil {
					log.Fatal(err)
				}
				n = res.Len()
			}
			elapsed := time.Since(start) / reps
			if workers == 1 {
				serialLen, serial = n, elapsed
			}
			// Serial and parallel must agree exactly — multiplicities
			// included — or the exchange would be broken.
			if n != serialLen {
				log.Fatalf("workers=%d: cardinality %d differs from serial %d", workers, n, serialLen)
			}
			fmt.Printf("  workers=%d %10v   %.2fx serial   (|result| = %d)\n",
				workers, elapsed, float64(elapsed)/float64(serial), n)
		}
		fmt.Println()
	}
}
