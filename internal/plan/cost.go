package plan

import (
	"mra/internal/algebra"
	"mra/internal/scalar"
	"mra/internal/value"
)

// This file holds the cardinality-based cost model.  It lived in package
// rewrite while only the rewriter ranked plans; it moved here so the planner
// can feed it real base-table cardinalities (internal/storage and every
// eval source implement CardinalitySource) when choosing join strategies and
// build sides.  Package rewrite re-exports the API for its callers.

// CardinalitySource provides base-relation cardinalities for the cost model.
// The storage engine implements it directly; evaluation sources are adapted
// via eval.Cardinalities.
type CardinalitySource interface {
	// RelationCardinality returns the number of tuples (counting duplicates)
	// in the named relation, and whether the relation is known.
	RelationCardinality(name string) (uint64, bool)
}

// DistinctCardinalitySource optionally refines a CardinalitySource with
// distinct-tuple counts.  The planner uses them to size hash tables (the
// multiplicity-counting cardinality can overshoot the table size by the
// duplication factor); the cost model itself ranks on full cardinalities.
type DistinctCardinalitySource interface {
	// RelationDistinctCount returns the number of distinct tuples in the
	// named relation, and whether the relation is known.
	RelationDistinctCount(name string) (int, bool)
}

// MapCardinalities is a CardinalitySource backed by a map.
type MapCardinalities map[string]uint64

// RelationCardinality implements CardinalitySource.
func (m MapCardinalities) RelationCardinality(name string) (uint64, bool) {
	c, ok := m[name]
	return c, ok
}

// Default selectivities of the cost model.  They are deliberately coarse: the
// model only needs to rank plans whose cost differs by orders of magnitude
// (product vs. hash join, pruned vs. unpruned group-by inputs).
const (
	defaultRelationCard   = 1000.0
	selectionSelectivity  = 0.25
	joinSelectivity       = 0.1
	uniqueReduction       = 0.6
	groupReduction        = 0.2
	transitiveBlowup      = 4.0
	perTupleProcessingFee = 1.0
)

// buildParallelFactor scales the exchange threshold to the estimated
// build-side cardinality at which a shared hash join's table is built
// morsel-parallel by the gang instead of serially in the parent.  The build
// threshold sits well above the exchange threshold because a parallel build
// adds a second gang dispatch plus a table merge, which only amortises over
// substantially larger builds than the probe-side parallelism needs.
const buildParallelFactor = 4

// Morsel sizing bounds.  The cost model aims at several morsels per worker so
// the queue can rebalance around skew, clamped below so the atomic claim
// amortises and above so a morsel's batch output stays cache-resident.
const (
	minMorselSize          = 64
	maxMorselSize          = 4096
	morselsPerWorkerTarget = 8
)

// morselSizeFor chooses the morsel size for a scan of about distinct entries
// executing under a gang of the given width: the entry count divided so each
// worker sees morselsPerWorkerTarget morsels on average, clamped to
// [minMorselSize, maxMorselSize].
func morselSizeFor(distinct float64, workers int) int {
	if workers < 1 {
		workers = 1
	}
	size := int(distinct) / (workers * morselsPerWorkerTarget)
	if size < minMorselSize {
		return minMorselSize
	}
	if size > maxMorselSize {
		return maxMorselSize
	}
	return size
}

// Cost estimates the total processing cost of an expression: the sum over all
// operators of the tuples they must inspect plus the tuples they emit.
// Products pay for their full output; hash joins pay for build plus probe.
func Cost(e algebra.Expr, cards CardinalitySource) float64 {
	cost, _ := costAndCard(e, cards)
	return cost
}

// EstimateCardinality estimates the output cardinality of an expression.
func EstimateCardinality(e algebra.Expr, cards CardinalitySource) float64 {
	_, card := costAndCard(e, cards)
	return card
}

func costAndCard(e algebra.Expr, cards CardinalitySource) (cost, card float64) {
	switch n := e.(type) {
	case algebra.Rel:
		if cards != nil {
			if c, ok := cards.RelationCardinality(n.Name); ok {
				return 0, float64(c)
			}
		}
		return 0, defaultRelationCard
	case algebra.Literal:
		return 0, float64(len(n.Rows))
	case algebra.Union:
		lc, lk := costAndCard(n.Left, cards)
		rc, rk := costAndCard(n.Right, cards)
		out := lk + rk
		return lc + rc + out*perTupleProcessingFee, out
	case algebra.Difference:
		lc, lk := costAndCard(n.Left, cards)
		rc, rk := costAndCard(n.Right, cards)
		return lc + rc + (lk+rk)*perTupleProcessingFee, lk
	case algebra.Intersect:
		lc, lk := costAndCard(n.Left, cards)
		rc, rk := costAndCard(n.Right, cards)
		out := lk
		if rk < out {
			out = rk
		}
		return lc + rc + (lk+rk)*perTupleProcessingFee, out
	case algebra.Product:
		lc, lk := costAndCard(n.Left, cards)
		rc, rk := costAndCard(n.Right, cards)
		out := lk * rk
		return lc + rc + out*perTupleProcessingFee, out
	case algebra.Join:
		lc, lk := costAndCard(n.Left, cards)
		rc, rk := costAndCard(n.Right, cards)
		// Hash join when an equality conjunct links the two sides; otherwise
		// nested loops over the product.
		if hasEquiConjunct(n) {
			out := (lk * rk) * joinSelectivity
			return lc + rc + (lk+rk+out)*perTupleProcessingFee, out
		}
		out := lk * rk * joinSelectivity
		return lc + rc + (lk*rk)*perTupleProcessingFee, out
	case algebra.Select:
		ic, ik := costAndCard(n.Input, cards)
		out := ik * selectionSelectivity
		return ic + ik*perTupleProcessingFee, out
	case algebra.Project:
		// Projections are pipelined: they narrow tuples without materialising
		// a new relation, so they carry no per-tuple charge of their own.
		return costAndCard(n.Input, cards)
	case algebra.ExtProject:
		return costAndCard(n.Input, cards)
	case algebra.Unique:
		ic, ik := costAndCard(n.Input, cards)
		return ic + ik*perTupleProcessingFee, ik * uniqueReduction
	case algebra.GroupBy:
		ic, ik := costAndCard(n.Input, cards)
		out := ik * groupReduction
		if len(n.GroupCols) == 0 {
			out = 1
		}
		return ic + ik*perTupleProcessingFee, out
	case algebra.TClose:
		ic, ik := costAndCard(n.Input, cards)
		out := ik * transitiveBlowup
		return ic + (ik+out)*perTupleProcessingFee*2, out
	default:
		return 0, defaultRelationCard
	}
}

// hasEquiConjunct reports whether the join condition contains an equality
// conjunct between two attribute references, the shape the physical layer
// executes as a hash join.
func hasEquiConjunct(j algebra.Join) bool {
	for _, c := range scalar.Conjuncts(j.Cond) {
		cmp, ok := c.(scalar.Compare)
		if !ok || cmp.Op != value.CmpEq {
			continue
		}
		_, lok := cmp.Left.(scalar.Attr)
		_, rok := cmp.Right.(scalar.Attr)
		if lok && rok {
			return true
		}
	}
	return false
}
