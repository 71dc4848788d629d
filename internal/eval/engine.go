package eval

import (
	"context"

	"mra/internal/algebra"
	"mra/internal/multiset"
	"mra/internal/plan"
	"mra/internal/tuple"
)

// Engine is the physical evaluator.  It produces exactly the same multi-sets
// as Reference but runs through the physical layer: every expression is
// compiled by plan.Planner into a tree of streaming physical operators (hash
// join, hash aggregate, fused σ/π pipelines) and executed against the source.
// All physical decisions — join strategy, build side, operator pipelining —
// are made by the planner from the cost model's cardinality estimates; the
// engine itself only wires source cardinalities and statistics through.
//
// Stats, when enabled, records per-physical-operator emission and
// materialisation counts; the benchmarks for the paper's Example 3.2 use them
// to show the effect of projection push-in on intermediate result
// cardinality.
type Engine struct {
	// CollectStats enables per-operator accounting in Stats.
	CollectStats bool
	// Stats accumulates execution statistics since the last Reset.
	Stats Stats
	// Planner is the planner configuration every evaluation compiles under —
	// parallelism degree, exchange threshold, morsel and batch sizing, memory
	// budget; see plan.Planner for each option.  The zero value plans serial
	// with the cost model's defaults.  Its Cards field is ignored: the engine
	// draws cardinalities from the source of each evaluation.
	Planner plan.Planner
}

// Stats aggregates intermediate result sizes per physical operator, counting
// duplicates.
type Stats = plan.Stats

// Reset clears the collected statistics.
func (e *Engine) Reset() { e.Stats = Stats{} }

// planner returns a copy of the engine's planner drawing cardinalities and
// statistics from src.
func (e *Engine) planner(src Source) *plan.Planner {
	pl := e.Planner
	pl.Cards = Cardinalities(src)
	return &pl
}

// Eval compiles the expression into a physical plan and executes it against
// the source.
func (e *Engine) Eval(expr algebra.Expr, src Source) (*multiset.Relation, error) {
	return e.EvalContext(context.Background(), expr, src)
}

// EvalContext is Eval under a lifecycle context: execution polls ctx at
// amortised checkpoints and aborts with ctx.Err() once it is cancelled or past
// its deadline.  A Background context adds no cost over Eval.
func (e *Engine) EvalContext(ctx context.Context, expr algebra.Expr, src Source) (*multiset.Relation, error) {
	p, err := e.planner(src).Plan(expr, CatalogOf(src))
	if err != nil {
		return nil, err
	}
	if e.CollectStats {
		return p.ExecuteStatsContext(ctx, src, &e.Stats)
	}
	return p.ExecuteContext(ctx, src)
}

// EvalOrdered compiles the expression into a physical plan rooted at a Sort
// operator over the given keys and executes it, returning the occurrences in
// sort order alongside the result relation.  It serves the presentation path
// of SQL ORDER BY: relations stay unordered, the order lives only in the
// returned slice.
func (e *Engine) EvalOrdered(expr algebra.Expr, src Source, keys []plan.SortKey) ([]tuple.Tuple, *multiset.Relation, error) {
	return e.EvalOrderedContext(context.Background(), expr, src, keys)
}

// EvalOrderedContext is EvalOrdered under a lifecycle context (see
// EvalContext).
func (e *Engine) EvalOrderedContext(ctx context.Context, expr algebra.Expr, src Source, keys []plan.SortKey) ([]tuple.Tuple, *multiset.Relation, error) {
	p, err := e.planner(src).PlanOrdered(expr, CatalogOf(src), keys)
	if err != nil {
		return nil, nil, err
	}
	if e.CollectStats {
		return p.ExecuteOrderedContext(ctx, src, &e.Stats)
	}
	return p.ExecuteOrderedContext(ctx, src, nil)
}
