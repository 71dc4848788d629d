package plan

import (
	"mra/internal/multiset"
	"mra/internal/tuple"
	"mra/internal/value"
)

// This file implements the one stream protocol between physical operators:
// the columnar Batch with its selection vector, the EmitBatch consumer side,
// and the three edges where a stream meets tuples — Batch.forEach hands a
// batch's live chunks to operators that want tuples, batchWriter buffers
// tuples an operator produces into batches, and emitRelation streams a
// materialised relation batch-wise off its entry arena.  Batching amortises
// call overhead (a pipeline crosses operator boundaries once per batch, not
// once per tuple) and, in columnar form, lets the hot operator loops (filter,
// project, join probe, aggregate update) run column-at-a-time over contiguous
// value vectors.  How a stream is cut into batches never changes the
// multi-set it denotes.
//
// The materialisation rule: a tuple is built from a columnar row only where
// a sink keeps a new distinct row — a relation (Relation.AddColumns), or an
// entry of the plan's one hash table (hashTable.rowEntry): Unique's seen-set,
// a new group, a distinct tuple of the build side of ∸ or ∩, a closure
// pair — or where a row-wise consumer needs one: a join build, the nested
// loop, Sort, and a predicate the filter kernels cannot express.  Every
// hashing sink hashes and compares a row in place (hashRow,
// hashTable.nextRow) before deciding; the probes of the hash join, ∸ and ∩
// read their rows in place too, the join writing its matches into column
// vectors and ∸ and ∩ re-emitting the probe batch under their own counts and
// selection; so a row that is filtered, joined, projected, deduplicated,
// subtracted or aggregated away never becomes a tuple.

// DefaultBatchSize is the number of chunks per emitted batch when the planner
// does not size batches itself.  Large enough that per-batch call overhead
// vanishes against per-tuple work, small enough that a batch's column vectors
// stay cache-resident.
const DefaultBatchSize = 128

// Batch is one vector of stream chunks in dual row/column representation.
//
// The batch holds rows physical rows.  Row r carries multiplicity Counts[r],
// and its attribute values are readable through either view: row-major as
// Tuples[r] (when the producer emitted tuples — scans hand out arena tuples
// for free) or column-major as Cols[c][r] (when the producer emitted column
// vectors — projections share input columns without copying).  At least one
// view is always populated; Counts always is.
//
// Sel is the selection vector: the ascending physical row indices that are
// live.  A nil Sel means every row is live.  Filters refine Sel instead of
// compacting the batch, so a selective predicate costs index writes, never
// value moves; every consumer iterates live rows only (b.Row maps a live
// position to its physical row).  Dead rows may hold arbitrary values and
// must never be read or evaluated — error semantics are defined over live
// rows only.
//
// A batch denotes the multi-set summing its live chunks, and the same tuple
// may appear in several chunks (even within one batch); consumers add
// multiplicities.
//
// Ownership: a Batch handed to an EmitBatch is only valid for the duration of
// the call — producers reuse the backing slices (Tuples, Counts, Cols, Sel)
// for the next batch.  The tuples and values themselves are immutable and may
// be retained; the slices may not.
type Batch struct {
	// Tuples is the row-major view; nil when the batch is columnar-only.
	Tuples []tuple.Tuple
	// Counts holds the physical rows' multiplicities; always populated.
	Counts []uint64
	// Cols is the column-major view, one vector per attribute; nil when the
	// batch is row-only.
	Cols []value.Vec
	// Sel lists the live physical rows in ascending order; nil means all rows
	// are live.
	Sel []int32
}

// rows returns the number of physical rows.
func (b *Batch) rows() int { return len(b.Counts) }

// Len returns the number of live chunks in the batch.
func (b *Batch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return len(b.Counts)
}

// Row maps live position i to its physical row index.
func (b *Batch) Row(i int) int {
	if b.Sel != nil {
		return int(b.Sel[i])
	}
	return i
}

// Total returns the number of tuple occurrences the batch denotes: the sum of
// its live counts.
func (b *Batch) Total() uint64 {
	var s uint64
	if b.Sel == nil {
		for _, c := range b.Counts {
			s += c
		}
		return s
	}
	for _, r := range b.Sel {
		s += b.Counts[r]
	}
	return s
}

// TupleAt returns the tuple of physical row r, constructing it from the
// column view when the batch is columnar-only.  Constructing allocates: it
// is the materialisation boundary, crossed only under the rule in this
// file's header — for a live row a sink keeps as a new distinct row, or that
// a row-wise consumer needs.
func (b *Batch) TupleAt(r int) tuple.Tuple {
	if b.Tuples != nil {
		return b.Tuples[r]
	}
	vals := make([]value.Value, len(b.Cols))
	for c := range b.Cols {
		vals[c] = b.Cols[c][r]
	}
	return tuple.FromSlice(vals)
}

// at returns attribute c of physical row r from whichever view the batch
// carries, without building the row's tuple.
func (b *Batch) at(r, c int) value.Value {
	if b.Tuples != nil {
		return b.Tuples[r].At(c)
	}
	return b.Cols[c][r]
}

// forEach iterates the live rows as (tuple, count) chunks, in row order: how
// the operators that want tuples — the nested loop and the ordered sink —
// read a batch.
func (b *Batch) forEach(fn Emit) error {
	if b.Sel == nil {
		for r := range b.Counts {
			if err := fn(b.TupleAt(r), b.Counts[r]); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range b.Sel {
		if err := fn(b.TupleAt(int(r)), b.Counts[r]); err != nil {
			return err
		}
	}
	return nil
}

// reset empties the batch's row view, keeping the backing capacity for reuse.
func (b *Batch) reset() {
	b.Tuples = b.Tuples[:0]
	b.Counts = b.Counts[:0]
	b.Cols = nil
	b.Sel = nil
}

// EmitBatch receives one batch of an operator's output stream.  Returning an
// error aborts the stream.  The batch is owned by the producer and must not be
// retained (see Batch).
type EmitBatch func(b *Batch) error

// batchWriter accumulates chunks into a reusable row-view batch and flushes it
// to emit whenever it reaches the execution's batch size: the output side of
// operators that produce tuples one at a time (join matches, Unique's first
// sightings, aggregate groups, sorted chunks).  Producers must call flush once
// at end of stream.
type batchWriter struct {
	out  Batch
	size int
	emit EmitBatch
}

// newBatchWriter returns a writer emitting batches of ctx's batch size.
func newBatchWriter(ctx *execCtx, emit EmitBatch) *batchWriter {
	size := ctx.batchCap()
	return &batchWriter{
		out:  Batch{Tuples: make([]tuple.Tuple, 0, size), Counts: make([]uint64, 0, size)},
		size: size,
		emit: emit,
	}
}

// push appends one chunk, flushing the batch downstream when full.
func (w *batchWriter) push(t tuple.Tuple, n uint64) error {
	w.out.Tuples = append(w.out.Tuples, t)
	w.out.Counts = append(w.out.Counts, n)
	if len(w.out.Tuples) >= w.size {
		return w.flush()
	}
	return nil
}

// flush emits the buffered batch, if any, and resets the buffer.
func (w *batchWriter) flush() error {
	if len(w.out.Tuples) == 0 {
		return nil
	}
	err := w.emit(&w.out)
	w.out.reset()
	return err
}

// emitRelation streams the entries in arena positions [lo, hi) of a
// materialised relation — all of a scanned base relation or a gang's
// partial, or one morsel of a scan — into emit as row-view batches filled
// straight off the entry arena (multiset.EachBatch, one tight pass with no
// per-tuple callback).  It is a cancellation checkpoint: the query context
// is polled once per batch.
func emitRelation(ctx *execCtx, r *multiset.Relation, lo, hi int, emit EmitBatch) error {
	var b Batch
	var err error
	r.EachBatch(lo, hi, ctx.batchCap(), func(tuples []tuple.Tuple, counts []uint64) bool {
		if err = ctx.poll(); err != nil {
			return false
		}
		b.Tuples, b.Counts = tuples, counts
		err = emit(&b)
		return err == nil
	})
	return err
}

// colCache is a consumer-owned column gather cache: one reusable vector per
// attribute of the batch it is currently bound to (batch binds it; col reads
// it).  col returns the bound batch's column c, sharing the producer's vector
// when the batch is columnar and gathering from the row view (tuple.Column,
// one contiguous pass, at most once per batch and column) otherwise.
// Gathered vectors are valid until the next batch, exactly like the batch
// itself.  Operators allocate a colCache per run call — never on the node,
// which is shared across gang workers.
type colCache struct {
	b    *Batch
	bufs []value.Vec
	have []bool
}

// batch binds the cache to the next batch, invalidating gathered columns.
func (cc *colCache) batch(b *Batch) {
	cc.b = b
	for i := range cc.have {
		cc.have[i] = false
	}
}

// col returns column c of the bound batch (see colCache).
func (cc *colCache) col(c int) value.Vec {
	if cc.b.Cols != nil {
		return cc.b.Cols[c]
	}
	for len(cc.have) <= c {
		cc.bufs = append(cc.bufs, nil)
		cc.have = append(cc.have, false)
	}
	if !cc.have[c] {
		if cap(cc.bufs[c]) < len(cc.b.Tuples) {
			cc.bufs[c] = make(value.Vec, 0, len(cc.b.Tuples))
		}
		cc.bufs[c] = tuple.Column(cc.b.Tuples, c, cc.bufs[c])
		cc.have[c] = true
	}
	return cc.bufs[c]
}
