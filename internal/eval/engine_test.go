package eval

import (
	"context"
	"mra/internal/algebra"
	"mra/internal/multiset"
	"mra/internal/plan"
)

// Engine is the physical evaluator the tests hold against the oracle: it
// compiles an expression with plan.Planner over a bare Source and executes
// the plan, so the property suites need no transaction.  Everything outside
// the tests evaluates through txn.Tx.EvaluatePlan.
type Engine struct {
	// CollectStats enables per-operator accounting in Stats.
	CollectStats bool
	// Stats accumulates execution statistics since the last Reset.
	Stats plan.Stats
	// Planner is the planner configuration; its Cards field is replaced by
	// the source of each evaluation.
	Planner plan.Planner
}

// Reset clears the collected statistics.
func (e *Engine) Reset() { e.Stats = plan.Stats{} }

// planner returns a copy of the engine's planner drawing cardinalities and
// statistics from src.
func (e *Engine) planner(src Source) *plan.Planner {
	pl := e.Planner
	pl.Cards = src
	return &pl
}

// Eval plans the expression against the source and executes the plan.
func (e *Engine) Eval(expr algebra.Expr, src Source) (*multiset.Relation, error) {
	p, err := e.planner(src).Plan(expr, CatalogOf(src))
	if err != nil {
		return nil, err
	}
	if e.CollectStats {
		return p.ExecuteStatsContext(context.Background(), src, &e.Stats)
	}
	return p.Execute(src)
}
