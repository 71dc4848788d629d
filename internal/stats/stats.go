// Package stats implements the optimizer's statistics subsystem: per-column
// HyperLogLog distinct-count sketches, equi-depth histograms, and
// null/min/max summaries over multi-set relations.
//
// Statistics are built in full by Analyze (the ANALYZE statement) and
// maintained incrementally from the multiset Add/Remove deltas that
// key-granular commits already produce (storage.ApplyDeltas): additions
// update every summary exactly, while removals decrement row and bucket
// counts but cannot shrink a sketch or a min/max bound — those only tighten
// again on the next ANALYZE.  Tables are immutable after construction;
// ApplyDelta returns a fresh copy, so MVCC snapshots can hold a *Table
// pointer without locks and always plan against the statistics of their own
// version.
package stats

import (
	"mra/internal/multiset"
	"mra/internal/tuple"
	"mra/internal/value"
)

// Column summarises one attribute: a distinct-value sketch, the null count,
// the observed min/max, and an equi-depth histogram over non-null values.
type Column struct {
	sketch   *Sketch
	nulls    float64
	hasRange bool
	min, max value.Value
	hist     *Histogram
}

// clone returns an independent copy of the column summary.  The sketch is
// shared copy-on-write: observe copies it on the first register it raises.
func (c *Column) clone() Column {
	return Column{
		sketch:   c.sketch,
		nulls:    c.nulls,
		hasRange: c.hasRange,
		min:      c.min,
		max:      c.max,
		hist:     c.hist.clone(),
	}
}

// observe records n occurrences of v in the column summary.  shared is the
// sketch of the summary c was cloned from: while c still holds it, the first
// register v raises copies it.
func (c *Column) observe(v value.Value, n float64, shared *Sketch) {
	if v.IsNull() {
		c.nulls += n
		return
	}
	c.sketch = c.sketch.add(v.Hash(), c.sketch != shared)
	if !c.hasRange {
		c.hasRange = true
		c.min, c.max = v, v
	} else {
		if v.Less(c.min) {
			c.min = v
		}
		if c.max.Less(v) {
			c.max = v
		}
	}
	if c.hist != nil {
		c.hist.add(v, n)
	}
}

// forget removes n occurrences of v from the decrementable summaries.  The
// sketch and min/max cannot shrink; they stay valid upper bounds until the
// next ANALYZE (Table.ApplyDelta documents the contract).
func (c *Column) forget(v value.Value, n float64) {
	if v.IsNull() {
		if c.nulls < n {
			n = c.nulls
		}
		c.nulls -= n
		return
	}
	if c.hist != nil {
		c.hist.remove(v, n)
	}
}

// Table is an immutable statistics summary of one relation instance: total
// row count, a distinct-tuple sketch, one Column per attribute, and the
// database version the summary describes.  All methods are safe for
// concurrent use; mutation goes through ApplyDelta, which returns a new
// Table.
type Table struct {
	rows    float64
	tuples  *Sketch
	cols    []Column
	version uint64
}

// Analyze builds complete statistics for a relation instance, stamped with
// the given database version.  Histograms use DefaultBuckets buckets.
func Analyze(r *multiset.Relation, version uint64) *Table {
	arity := r.Schema().Arity()
	t := &Table{tuples: NewSketch(), cols: make([]Column, arity), version: version}
	// First pass: gather per-column non-null values with multiplicities so
	// the equi-depth histograms can be built from sorted runs.
	vals := make([][]value.Value, arity)
	counts := make([][]uint64, arity)
	r.EachHash(func(tp tuple.Tuple, hash uint64, count uint64) bool {
		t.rows += float64(count)
		t.tuples.Add(hash)
		for i := 0; i < arity; i++ {
			v := tp.At(i)
			if v.IsNull() {
				t.cols[i].nulls += float64(count)
				continue
			}
			vals[i] = append(vals[i], v)
			counts[i] = append(counts[i], count)
		}
		return true
	})
	for i := range t.cols {
		c := &t.cols[i]
		c.sketch = NewSketch()
		for _, v := range vals[i] {
			c.sketch.Add(v.Hash())
		}
		for _, v := range vals[i] {
			if !c.hasRange {
				c.hasRange = true
				c.min, c.max = v, v
				continue
			}
			if v.Less(c.min) {
				c.min = v
			}
			if c.max.Less(v) {
				c.max = v
			}
		}
		c.hist = buildHistogram(vals[i], counts[i], DefaultBuckets)
	}
	return t
}

// ApplyDelta returns a new Table reflecting the given multiset delta
// (occurrences added and removed).  Additions update every summary; removals
// decrement row, null, and histogram-bucket counts but leave sketches and
// min/max untouched, so between ANALYZE runs distinct counts and ranges are
// upper bounds whose error the stats property suite bounds.  Either relation
// may be nil.  The new table shares every sketch the delta raises no
// register of — an update's unchanged columns, typically — with t, so a
// commit copies only the sketches it changes.
func (t *Table) ApplyDelta(add, remove *multiset.Relation) *Table {
	nt := &Table{
		rows:    t.rows,
		tuples:  t.tuples,
		cols:    make([]Column, len(t.cols)),
		version: t.version,
	}
	for i := range t.cols {
		nt.cols[i] = t.cols[i].clone()
	}
	if add != nil {
		add.EachHash(func(tp tuple.Tuple, hash uint64, count uint64) bool {
			nt.rows += float64(count)
			nt.tuples = nt.tuples.add(hash, nt.tuples != t.tuples)
			for i := range nt.cols {
				if i < tp.Arity() {
					nt.cols[i].observe(tp.At(i), float64(count), t.cols[i].sketch)
				}
			}
			return true
		})
	}
	if remove != nil {
		remove.EachHash(func(tp tuple.Tuple, hash uint64, count uint64) bool {
			n := float64(count)
			if nt.rows < n {
				n = nt.rows
			}
			nt.rows -= n
			for i := range nt.cols {
				if i < tp.Arity() {
					nt.cols[i].forget(tp.At(i), float64(count))
				}
			}
			return true
		})
	}
	return nt
}

// WithVersion returns a copy of the table stamped with a new version.  The
// summaries are shared (the table is immutable), so this is O(1).
func (t *Table) WithVersion(version uint64) *Table {
	nt := *t
	nt.version = version
	return &nt
}

// Rows returns the estimated total occurrence count.
func (t *Table) Rows() float64 { return t.rows }

// DistinctTuples estimates the number of distinct tuples, clamped by Rows.
func (t *Table) DistinctTuples() float64 {
	e := t.tuples.Estimate()
	if e > t.rows {
		e = t.rows
	}
	return e
}

// Cols returns the number of columns summarised.
func (t *Table) Cols() int { return len(t.cols) }

// Version returns the database version the statistics were last rebuilt or
// incrementally updated at.
func (t *Table) Version() uint64 { return t.version }

// NDV estimates the number of distinct non-null values in a column, clamped
// by the row count.  The second result is false when the column index is out
// of range.
func (t *Table) NDV(col int) (float64, bool) {
	if col < 0 || col >= len(t.cols) {
		return 0, false
	}
	e := t.cols[col].sketch.Estimate()
	nonNull := t.rows - t.cols[col].nulls
	if nonNull < 0 {
		nonNull = 0
	}
	if e > nonNull {
		e = nonNull
	}
	return e, true
}

// KeyColumn chooses the relation's key column, the one column a key chain
// is kept for (multiset.Relation.WithKey): the lowest-ordinal column whose
// distinct-value estimate is at least half the distinct-tuple estimate, so
// an equality on it selects about two tuples or fewer.  It returns -1, no
// key, for an empty relation or when no column qualifies.
func (t *Table) KeyColumn() int {
	distinct := t.DistinctTuples()
	if distinct <= 0 {
		return -1
	}
	for i := range t.cols {
		if ndv, _ := t.NDV(i); ndv >= distinct/2 {
			return i
		}
	}
	return -1
}

// NullFraction returns the fraction of rows whose column value is null.
func (t *Table) NullFraction(col int) float64 {
	if col < 0 || col >= len(t.cols) || t.rows <= 0 {
		return 0
	}
	f := t.cols[col].nulls / t.rows
	if f > 1 {
		f = 1
	}
	return f
}

// Range returns the observed min and max of a column's non-null values.
func (t *Table) Range(col int) (min, max value.Value, ok bool) {
	if col < 0 || col >= len(t.cols) || !t.cols[col].hasRange {
		return value.Value{}, value.Value{}, false
	}
	return t.cols[col].min, t.cols[col].max, true
}

// FracLE estimates the fraction of all rows whose column value is <= v
// (inclusive) or < v (exclusive).  Null rows never match.  The second result
// is false when no histogram is available for the column.
func (t *Table) FracLE(col int, v value.Value, inclusive bool) (float64, bool) {
	if col < 0 || col >= len(t.cols) || t.cols[col].hist == nil || t.rows <= 0 {
		return 0, false
	}
	c := &t.cols[col]
	nonNull := 1 - t.NullFraction(col)
	return c.hist.FracLE(v, inclusive) * nonNull, true
}

// EqFraction estimates the fraction of all rows whose column value equals v:
// zero outside the observed range, otherwise the uniform 1/NDV share of the
// non-null rows.
func (t *Table) EqFraction(col int, v value.Value) (float64, bool) {
	if col < 0 || col >= len(t.cols) || t.rows <= 0 {
		return 0, false
	}
	c := &t.cols[col]
	if v.IsNull() {
		return t.NullFraction(col), true
	}
	if c.hasRange && (v.Less(c.min) || c.max.Less(v)) {
		return 0, true
	}
	ndv, _ := t.NDV(col)
	if ndv < 1 {
		return 0, true
	}
	return (1 - t.NullFraction(col)) / ndv, true
}

// Histogram returns the column's equi-depth histogram (nil when the column
// holds no non-null values or statistics were never built for it).
func (t *Table) Histogram(col int) *Histogram {
	if col < 0 || col >= len(t.cols) {
		return nil
	}
	return t.cols[col].hist
}
