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
	"time"

	"mra/internal/algebra"
	"mra/internal/eval"
	"mra/internal/plan"
	"mra/internal/scalar"
	"mra/internal/value"
	"mra/internal/workload"
)

func main() {
	// A Zipf-skewed join workload: 20000 fact rows over 100 dimension keys,
	// exponent 1.4 — key 0 alone draws a large share of the rows.
	fact, dim := workload.JoinPair(workload.JoinConfig{
		LeftTuples: 20000, RightTuples: 100, KeyRange: 100, Skew: 1.4, Seed: 7,
	})
	src := eval.MapSource{"fact": fact, "dim": dim}
	fmt.Printf("fact: %d rows (%d distinct), dim: %d rows — Zipf(1.4) keys\n\n",
		fact.Cardinality(), fact.DistinctCount(), dim.Cardinality())

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

	// Two engines over the same queries: serial, and 4 workers with morsel
	// stealing.
	engines := []struct {
		name string
		eng  eval.Engine
	}{
		{"serial   ", eval.Engine{}},
		{"w4 morsel", eval.Engine{Planner: plan.Planner{Workers: 4}}},
	}

	const reps = 20
	for _, q := range queries {
		fmt.Printf("== %s ==\n", q.name)
		var serialCard uint64
		var serial time.Duration
		for i, e := range engines {
			// Warm up once, then time reps evaluations.
			if _, err := e.eng.Eval(q.expr, src); err != nil {
				log.Fatal(err)
			}
			start := time.Now()
			var card uint64
			for r := 0; r < reps; r++ {
				res, err := e.eng.Eval(q.expr, src)
				if err != nil {
					log.Fatal(err)
				}
				card = res.Cardinality()
			}
			elapsed := time.Since(start) / reps
			if i == 0 {
				serialCard, serial = card, elapsed
			}
			// Serial and parallel must agree exactly — multiplicities
			// included — or the exchange would be broken.
			if card != serialCard {
				log.Fatalf("%s: cardinality %d differs from serial %d", e.name, card, serialCard)
			}
			fmt.Printf("  %s %10v   %.2fx serial   (|result| = %d)\n",
				e.name, elapsed, float64(elapsed)/float64(serial), card)
		}
		fmt.Println()
	}
}
