package plan

// This file implements the query-lifecycle governance of the physical layer:
// the amortised context checkpoints that make running plans cancellable, and
// the memory gauge that bounds the state blocking operators may accumulate.
//
// # Cancellation checkpoints
//
// Plans poll their query context at amortised points — one check per morsel
// claim, per batch a materialised relation streams out (emitRelation: scan
// leaves, gang partials), per batch a sink consumes (execCtx.collect, the
// ordered root), and per round and per batch of candidate pairs of the
// closure fixpoint — never per tuple.  Polling
// goes through execCtx.poll, which is disabled entirely (ctx.done == nil) when
// the query context can never be cancelled, so an uncancellable execution
// pays one nil check per batch.  A tripped poll returns the context's own
// error (context.Canceled or context.DeadlineExceeded), which aborts the
// stream through the ordinary error path of the stream contract.
//
// # Memory accounting
//
// A MemoryGauge is shared by every operator (and every gang worker) of one
// query execution.  Blocking operators charge the approximate resident size of
// each piece of state they retain — hash-join build entries, aggregation
// groups, Sort and nested-loop materialisations, the distinct tuples of the
// build side of ∸ and ∩, the closure's input pairs and the pairs each of its
// rounds derives, Unique's seen set — and the first charge that pushes usage
// past the budget fails the query with ErrMemoryBudget.  Accounting is approximate by design (a cheap per-tuple
// size estimate, not allocator truth): the gauge exists to fail fast before
// the process is in trouble, and to give the future spilling operators
// (grace-hash join, external sort) the trip-wire they will hook.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"mra/internal/tuple"
	"mra/internal/value"
)

// ErrMemoryBudget is returned when an operator's state growth would exceed the
// query's memory budget (Planner.MemoryLimit).  Errors carrying usage detail
// wrap it; test with errors.Is.
var ErrMemoryBudget = errors.New("plan: memory budget exceeded")

// MemoryGauge tracks the approximate bytes of operator-internal state one
// query execution holds, shared across all operators and gang workers of that
// execution.  Grow fails with an ErrMemoryBudget-wrapping error as soon as
// usage passes the limit, which is what lets a runaway build or group table
// abort the query instead of exhausting the process.  The zero limit means
// accounting without enforcement.  A nil gauge is valid and does nothing.
type MemoryGauge struct {
	limit int64
	used  atomic.Int64
}

// NewMemoryGauge returns a gauge enforcing the given byte limit; a
// non-positive limit accounts but never trips.
func NewMemoryGauge(limit int64) *MemoryGauge {
	if limit < 0 {
		limit = 0
	}
	return &MemoryGauge{limit: limit}
}

// Grow charges n more bytes of operator state and fails when the budget is
// exceeded.  It is safe for concurrent use by gang workers; on a nil gauge it
// is a no-op.
func (g *MemoryGauge) Grow(n int64) error {
	if g == nil {
		return nil
	}
	used := g.used.Add(n)
	if g.limit > 0 && used > g.limit {
		return fmt.Errorf("%w: operator state would hold %d bytes, limit %d", ErrMemoryBudget, used, g.limit)
	}
	return nil
}

// Release returns n bytes to the budget, for operators that free state before
// the query ends.
func (g *MemoryGauge) Release(n int64) {
	if g != nil {
		g.used.Add(-n)
	}
}

// Used returns the bytes currently charged.
func (g *MemoryGauge) Used() int64 {
	if g == nil {
		return 0
	}
	return g.used.Load()
}

// Limit returns the configured byte limit (zero when unenforced).
func (g *MemoryGauge) Limit() int64 {
	if g == nil {
		return 0
	}
	return g.limit
}

// Per-tuple size model of the memory gauge: a held tuple costs its slice
// header plus one Value per attribute, with string payloads added on top.
// Chunk bookkeeping (counts, chain links) is folded into the header constant.
const (
	tupleHeaderBytes = 48
	valueBytes       = 48
	// aggStateBytes is the charged size of one AggState (counters, sums with
	// their compensation term, and the two extremum Values).
	aggStateBytes = 152
)

// approxTupleBytes estimates the resident bytes of one retained tuple.
func approxTupleBytes(t tuple.Tuple) int64 {
	n := int64(tupleHeaderBytes) + int64(t.Arity())*valueBytes
	for i := 0; i < t.Arity(); i++ {
		if v := t.At(i); v.Kind() == value.KindString {
			n += int64(len(v.Str()))
		}
	}
	return n
}

// chargeTuple charges one retained tuple to the query's gauge, when one is
// set.
func (ctx *execCtx) chargeTuple(t tuple.Tuple) error {
	if ctx.mem == nil {
		return nil
	}
	return ctx.mem.Grow(approxTupleBytes(t))
}

// queryCtx returns the query's lifecycle context, Background when none was
// provided.
func (ctx *execCtx) queryCtx() context.Context {
	if ctx.qctx == nil {
		return context.Background()
	}
	return ctx.qctx
}

// setContext wires a lifecycle context into the execution context.  Contexts
// that can never be cancelled (Background) leave done nil, which turns every
// poll into a no-op — the serial fast path.
func (ctx *execCtx) setContext(c context.Context) {
	ctx.qctx = c
	if c != nil {
		ctx.done = c.Done()
	}
}

// poll returns the query context's error once it is cancelled or past its
// deadline, nil otherwise.  Callers invoke it at amortised checkpoints only:
// per morsel claim or per batch — never per tuple.
func (ctx *execCtx) poll() error {
	if ctx.done == nil {
		return nil
	}
	select {
	case <-ctx.done:
		return ctx.qctx.Err()
	default:
		return nil
	}
}
