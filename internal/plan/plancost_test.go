package plan

import (
	"testing"

	"mra/internal/algebra"
)

// BenchmarkPlanOverhead measures the fixed cost of compiling a small
// expression into a physical plan — the per-query overhead the planner split
// added to every evaluation.  It should stay in the order of a microsecond and a
// couple of dozen allocations, far below any actual evaluation.
func BenchmarkPlanOverhead(b *testing.B) {
	src := testSource(1000)
	cat := catalogOf(src)
	expr := algebra.NewUnion(
		algebra.NewProject([]int{0}, algebra.NewRel("fact")),
		algebra.NewProject([]int{0}, algebra.NewRel("dim")))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewPlanner(src).Plan(expr, cat); err != nil {
			b.Fatal(err)
		}
	}
}
