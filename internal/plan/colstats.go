package plan

import (
	"mra/internal/scalar"
	"mra/internal/stats"
	"mra/internal/value"
)

// tableStatser is the optional side of a planner source that carries full
// per-column statistics (ANALYZE output): distinct-value sketches, null
// fractions, and equi-depth histograms.  Transactions implement it over the
// snapshot they read, and tests attach precomputed summaries to map
// sources.
type tableStatser interface {
	// TableStats returns the named relation's statistics summary, and whether
	// one is available (relations are only summarised after ANALYZE).
	TableStats(name string) (*stats.Table, bool)
}

// colStat describes one plan-node output column for cardinality estimation:
// the estimated number of distinct values it carries and, when the column
// descends untransformed from an analysed base relation, the table summary
// and source column whose histogram can score predicates over it.
type colStat struct {
	ndv float64      // estimated distinct non-null values; 0 = unknown
	tab *stats.Table // base-table summary, nil when the column is derived
	col int          // column index within tab
}

// clampCols bounds every column's distinct-value estimate by the node's row
// estimate: a column cannot carry more distinct values than rows.
func clampCols(cols []colStat, rows float64) []colStat {
	for i := range cols {
		if cols[i].ndv > rows {
			cols[i].ndv = rows
		}
	}
	return cols
}

// concatCols returns the column statistics of a join's output, its
// operands' columns in schema order: nil when neither operand has any, and
// otherwise one entry per output column, an operand without statistics
// contributing unknown (zero) entries so the other's stay at their columns.
func concatCols(left, right Node) []colStat {
	l, r := left.meta().colStats, right.meta().colStats
	if l == nil && r == nil {
		return nil
	}
	la := left.Schema().Arity()
	out := make([]colStat, la+right.Schema().Arity())
	copy(out, l)
	copy(out[la:], r)
	return out
}

// scanColStats builds the column statistics of a base-relation scan from the
// planner's statistics source, or nil when the relation was never analysed.
func (pl *Planner) scanColStats(name string, arity int) []colStat {
	src, ok := pl.Cards.(tableStatser)
	if !ok {
		return nil
	}
	tab, ok := src.TableStats(name)
	if !ok || tab.Cols() != arity {
		return nil
	}
	cols := make([]colStat, arity)
	for i := range cols {
		ndv, _ := tab.NDV(i)
		cols[i] = colStat{ndv: ndv, tab: tab, col: i}
	}
	return cols
}

// predSelectivity estimates the fraction of rows satisfying pred given the
// input's per-column statistics.  The second result reports whether any part
// of the predicate could be scored from real statistics; when it is false the
// caller should fall back to the flat default selectivity, preserving the
// pre-statistics cost model for unanalysed relations.
func predSelectivity(pred scalar.Predicate, cols []colStat) (float64, bool) {
	switch p := pred.(type) {
	case scalar.True:
		return 1, true
	case scalar.False:
		return 0, true
	case scalar.And:
		ls, lk := predSelectivity(p.Left, cols)
		rs, rk := predSelectivity(p.Right, cols)
		if !lk && !rk {
			return selectionSelectivity, false
		}
		if !lk {
			ls = selectionSelectivity
		}
		if !rk {
			rs = selectionSelectivity
		}
		return ls * rs, true
	case scalar.Or:
		ls, lk := predSelectivity(p.Left, cols)
		rs, rk := predSelectivity(p.Right, cols)
		if !lk && !rk {
			return selectionSelectivity, false
		}
		if !lk {
			ls = selectionSelectivity
		}
		if !rk {
			rs = selectionSelectivity
		}
		return ls + rs - ls*rs, true
	case scalar.Not:
		s, known := predSelectivity(p.Operand, cols)
		if !known {
			return selectionSelectivity, false
		}
		return 1 - s, true
	case scalar.Compare:
		return compareSelectivity(p, cols)
	default:
		return selectionSelectivity, false
	}
}

// compareSelectivity scores an atomic comparison against column statistics.
func compareSelectivity(c scalar.Compare, cols []colStat) (float64, bool) {
	attr, cnst, op, ok := normaliseCompare(c)
	if ok {
		if attr.Index < 0 || attr.Index >= len(cols) {
			return selectionSelectivity, false
		}
		cs := cols[attr.Index]
		if cs.tab == nil {
			// No histogram, but an NDV estimate still scores equality.
			if cs.ndv > 0 && (op == value.CmpEq || op == value.CmpNe) {
				eq := 1 / cs.ndv
				if op == value.CmpNe {
					eq = 1 - eq
				}
				return eq, true
			}
			return selectionSelectivity, false
		}
		switch op {
		case value.CmpEq:
			if f, ok := cs.tab.EqFraction(cs.col, cnst); ok {
				return f, true
			}
		case value.CmpNe:
			if f, ok := cs.tab.EqFraction(cs.col, cnst); ok {
				return 1 - f, true
			}
		case value.CmpLt:
			if f, ok := cs.tab.FracLE(cs.col, cnst, false); ok {
				return f, true
			}
		case value.CmpLe:
			if f, ok := cs.tab.FracLE(cs.col, cnst, true); ok {
				return f, true
			}
		case value.CmpGt:
			if f, ok := cs.tab.FracLE(cs.col, cnst, true); ok {
				return 1 - f, true
			}
		case value.CmpGe:
			if f, ok := cs.tab.FracLE(cs.col, cnst, false); ok {
				return 1 - f, true
			}
		}
		return selectionSelectivity, false
	}
	// Attribute-to-attribute equality within one input (e.g. a cycle-closing
	// predicate): score it like a join conjunct, 1 / max NDV.
	if la, lok := c.Left.(scalar.Attr); lok {
		if ra, rok := c.Right.(scalar.Attr); rok && c.Op == value.CmpEq {
			if s, ok := equiSelectivity(ndvAt(cols, la.Index), ndvAt(cols, ra.Index)); ok {
				return s, true
			}
		}
	}
	return selectionSelectivity, false
}

// normaliseCompare extracts "attr op const" from a comparison, flipping the
// operator when the constant is on the left.
func normaliseCompare(c scalar.Compare) (scalar.Attr, value.Value, value.CompareOp, bool) {
	if a, ok := c.Left.(scalar.Attr); ok {
		if k, ok := c.Right.(scalar.Const); ok {
			return a, k.Value, c.Op, true
		}
	}
	if a, ok := c.Right.(scalar.Attr); ok {
		if k, ok := c.Left.(scalar.Const); ok {
			return a, k.Value, c.Op.Flip(), true
		}
	}
	return scalar.Attr{}, value.Value{}, c.Op, false
}

// ndvAt returns the distinct-value estimate of a column, 0 when unknown.
func ndvAt(cols []colStat, i int) float64 {
	if i < 0 || i >= len(cols) {
		return 0
	}
	return cols[i].ndv
}

// equiSelectivity is the textbook selectivity of an equality between two
// columns: 1 / max(NDV_l, NDV_r), defined only when both sides are known.
func equiSelectivity(l, r float64) (float64, bool) {
	if l <= 0 || r <= 0 {
		return 0, false
	}
	m := l
	if r > m {
		m = r
	}
	return 1 / m, true
}

// joinPairSelectivity folds the per-pair equality selectivities of a hash
// join's equi conjuncts, falling back to the flat joinSelectivity constant
// when no pair has statistics on both sides (the pre-statistics model).
func joinPairSelectivity(leftCols, rightCols []int, lstats, rstats []colStat) float64 {
	sel := 1.0
	known := false
	for i := range leftCols {
		if s, ok := equiSelectivity(ndvAt(lstats, leftCols[i]), ndvAt(rstats, rightCols[i])); ok {
			sel *= s
			known = true
		}
	}
	if !known {
		return joinSelectivity
	}
	return sel
}

// groupCapHint estimates the number of groups from the product of the
// grouping columns' distinct-value estimates, when every grouping column has
// one.  The second result is false when any column is unknown.
func groupCapHint(groupCols []int, cols []colStat) (float64, bool) {
	hint := 1.0
	for _, gc := range groupCols {
		ndv := ndvAt(cols, gc)
		if ndv <= 0 {
			return 0, false
		}
		hint *= ndv
	}
	return hint, true
}
