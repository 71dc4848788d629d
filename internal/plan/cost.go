package plan

// This file holds the cost model's inputs: the default selectivities it
// falls back on when the planner has no source (Planner.Cards), and the
// parallel sizing constants.  The estimates themselves are computed on the
// plan nodes as the planner builds them (planner.go, colstats.go).

// Default selectivities of the cost model.  They are deliberately coarse: the
// model only needs to rank plans whose cost differs by orders of magnitude
// (product vs. hash join, pruned vs. unpruned group-by inputs).
const (
	defaultRelationCard  = 1000.0
	selectionSelectivity = 0.25
	joinSelectivity      = 0.1
	uniqueReduction      = 0.6
	groupReduction       = 0.2
	transitiveBlowup     = 4.0
)

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
