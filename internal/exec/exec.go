// Package exec implements the morsel-driven parallel execution runtime behind
// the physical layer's exchange operators: a work-stealing morsel queue that
// hands idle workers fixed-size slices of a scan, and Gather, the one gang
// entry, which runs one producer per worker and returns their private partial
// results for the caller to combine.
//
// The runtime exploits a property the multi-set algebra guarantees by
// construction: relations are functions from tuples to multiplicities
// (Definition 2.2), so splitting a relation into disjoint partitions and
// summing the per-partition results of a distributive operator reproduces the
// serial result exactly — multiplicities add across partitions.  The policy of
// which operator shapes run parallel lives in package plan, which inserts
// Partition/Merge exchange nodes around them; this package supplies the
// mechanism only and knows nothing about operators.
//
// Concurrency contract: a worker's partial result is private to that worker
// — the runtime never touches it from two goroutines — so operator code
// running under Gather keeps the single-threaded stream contract of package
// plan.  Workers must not share mutable state; anything a worker accumulates
// is either its partial result (combined by the caller after Gather returns)
// or per-worker counters folded by the caller.  The only cross-worker state
// is MorselQueue, whose claims are a single atomic fetch-add.
//
// Lifecycle contract: every gang run is scoped by a context.  Gather derives
// a per-gang context that is cancelled the moment any worker fails — by
// returning an error or by panicking — so the sibling workers, which poll that
// context at morsel/batch granularity (package plan's checkpoints), stop
// promptly instead of draining their remaining input.  A panicking worker
// never crashes the process: the panic is recovered into a *PanicError
// carrying the worker id and stack, and takes part in the deterministic error
// merge (gangError) that prefers root-cause errors over the context
// cancellations they induced.  The runtime holds no channels between workers —
// partials are plain per-worker slices joined by a WaitGroup — so there is
// nothing to drain on an abort and a cancelled gang leaks no goroutines.
package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// maxWorkers bounds the parallelism degree: beyond it the per-worker slices
// of any realistic input are too thin to amortise goroutine and merge costs.
const maxWorkers = 64

// DefaultWorkers returns the auto-detected parallelism degree: the number of
// schedulable CPUs, capped so wide machines do not shred small inputs.
func DefaultWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Resolve normalises a configured worker count: values below one mean
// auto-detect (DefaultWorkers), and everything is clamped to maxWorkers.
func Resolve(workers int) int {
	if workers < 1 {
		workers = DefaultWorkers()
	}
	if workers > maxWorkers {
		workers = maxWorkers
	}
	return workers
}

// PanicError is a worker panic converted into an error: the gang runtime
// recovers panics inside worker goroutines so a crashing operator aborts the
// query, not the process.  It records which worker crashed and the stack at
// the panic site; the enclosing exchange wraps it with the operator it was
// executing.
type PanicError struct {
	// Worker is the index of the panicked worker within its gang.
	Worker int
	// Value is the value the worker panicked with.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error renders the panic with its worker id; the stack is kept out of the
// one-line message and available on the field.
func (e *PanicError) Error() string {
	return fmt.Sprintf("exec: worker %d panicked: %v", e.Worker, e.Value)
}

// runWorker runs one worker's task with panic recovery and the fault-injection
// worker-start hook.
func runWorker(ctx context.Context, w int, task func(ctx context.Context, worker int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Worker: w, Value: r, Stack: debug.Stack()}
		}
	}()
	if f := currentFaults(); f != nil && f.WorkerStart != nil {
		f.WorkerStart(w)
	}
	return task(ctx, w)
}

// gangError merges the per-worker failures of one gang run into the single
// error the exchange surfaces.  Root-cause errors win over context
// cancellations: when worker 3 panics and the gang context cancellation makes
// workers 0–2 return context.Canceled, first-error-wins by worker order would
// mask the panic behind a cancellation it caused.  Among errors of the same
// class the lowest-numbered worker wins, so the result is deterministic
// regardless of scheduling.
func gangError(errs []error) error {
	var ctxErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if ctxErr == nil {
				ctxErr = err
			}
			continue
		}
		return err
	}
	return ctxErr
}

// DefaultMorselSize is the number of scan entries a worker claims per visit
// to a MorselQueue when the planner does not size morsels itself.  Small
// enough that a gang rebalances around skewed slices, large enough that the
// atomic claim amortises.
const DefaultMorselSize = 1024

// MorselQueue hands out fixed-size, disjoint index ranges ("morsels") of
// [0, total) to competing workers.  It is the work-stealing core of
// morsel-driven scheduling: instead of pre-cutting one static slice per
// worker, every worker claims the next unprocessed morsel when it runs out of
// work, so a skewed slice no longer serialises the gang behind its unlucky
// owner.  Claims are a single atomic fetch-add; the queue is safe for
// concurrent use and never hands the same index to two workers.
type MorselQueue struct {
	size  uint64
	total uint64
	next  atomic.Uint64
}

// NewMorselQueue returns a queue over [0, total) handing out morsels of the
// given size.  A size at or below zero selects DefaultMorselSize.
func NewMorselQueue(total, size int) *MorselQueue {
	if size <= 0 {
		size = DefaultMorselSize
	}
	if total < 0 {
		total = 0
	}
	return &MorselQueue{size: uint64(size), total: uint64(total)}
}

// Next claims the next unprocessed morsel and returns its index range
// [lo, hi).  ok is false once the queue is exhausted; a drained queue stays
// drained.
//
// Next yields the processor before claiming: when the gang is wider than the
// machine (workers > GOMAXPROCS), claims then interleave across workers
// instead of one goroutine draining the whole queue inside its scheduling
// quantum — which would concentrate the partial results, and their hash-table
// growth, in a single worker.  On a machine with idle processors the yield is
// a few nanoseconds.
func (q *MorselQueue) Next() (lo, hi int, ok bool) {
	if f := currentFaults(); f != nil {
		f.claim()
	}
	runtime.Gosched()
	end := q.next.Add(q.size)
	start := end - q.size
	if start >= q.total {
		return 0, 0, false
	}
	if end > q.total {
		end = q.total
	}
	return int(start), int(end), true
}

// Gather runs producer once per worker of a gang of the given width (at
// least one) and returns the per-worker results in worker order: every
// exchange's partials — private relations, partial group states — come back
// through it.  Each result is produced and owned by its worker until Gather
// returns; on error the results collected so far are still returned (failed
// workers leave their zero value) so the caller can account for them.
//
// The producers receive a per-gang context derived from ctx and cancelled as
// soon as any worker fails — returns an error or panics — so sibling workers
// polling it stop promptly; it is also cancelled when Gather returns.  A
// panicking worker is recovered into a *PanicError instead of crashing the
// process.  The returned error is chosen by gangError: deterministically the
// lowest-numbered worker's failure, with root-cause errors (panics, operator
// failures) preferred over the context cancellations they induced in their
// siblings.  A gang of one runs on the caller's goroutine.
func Gather[T any](ctx context.Context, workers int, producer func(ctx context.Context, worker int) (T, error)) ([]T, error) {
	workers = max(workers, 1)
	out := make([]T, workers)
	task := func(ctx context.Context, w int) error {
		v, err := producer(ctx, w)
		out[w] = v
		return err
	}
	if workers == 1 {
		return out, runWorker(ctx, 0, task)
	}
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := runWorker(gctx, w, task); err != nil {
				errs[w] = err
				// Wake the siblings: one failed worker aborts the gang.
				cancel()
			}
		}()
	}
	wg.Wait()
	return out, gangError(errs)
}
