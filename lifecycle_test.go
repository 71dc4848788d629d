package mra

import (
	"context"
	"errors"
	"strings"
	"testing"

	"mra/internal/plan"
)

// TestQueryCancellation checks the lifecycle context rides the whole public
// stack — front-end, transaction, engine, plan — on both query languages: a
// cancelled context aborts the query with context.Canceled and the database
// stays usable.
func TestQueryCancellation(t *testing.T) {
	db := openBeerDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryXRAContext(ctx, "select[true](beer)"); !errors.Is(err, context.Canceled) {
		t.Errorf("QueryXRAContext: err = %v, want context.Canceled", err)
	}
	if _, err := db.QuerySQLContext(ctx, "SELECT name FROM beer"); !errors.Is(err, context.Canceled) {
		t.Errorf("QuerySQLContext: err = %v, want context.Canceled", err)
	}
	if _, err := db.QuerySQLContext(ctx, "SELECT name FROM beer ORDER BY name"); !errors.Is(err, context.Canceled) {
		t.Errorf("QuerySQLContext ordered: err = %v, want context.Canceled", err)
	}
	if _, err := db.ExecXRAContext(ctx, "begin select[true](beer); end;"); !errors.Is(err, context.Canceled) {
		t.Errorf("ExecXRAContext: err = %v, want context.Canceled", err)
	}
	// The database survives cancelled queries untouched.
	r, err := db.QueryXRA("beer")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 4 {
		t.Errorf("beer cardinality after cancellations = %d, want 4", r.Len())
	}
}

// TestQueryMemoryLimit checks SetMemoryLimit reaches the plan layer: a join
// under a tiny budget fails with plan.ErrMemoryBudget, lifting the budget
// restores service, and writes from the failed query never commit.
func TestQueryMemoryLimit(t *testing.T) {
	db := openBeerDB(t)
	db.SetMemoryLimit(64)
	if got := db.MemoryLimit(); got != 64 {
		t.Fatalf("MemoryLimit = %d, want 64", got)
	}
	_, err := db.QueryXRA("join[%2 = %4](beer, brewery)")
	if !errors.Is(err, plan.ErrMemoryBudget) {
		t.Fatalf("tiny budget: err = %v, want plan.ErrMemoryBudget", err)
	}
	if !strings.Contains(err.Error(), "limit") {
		t.Errorf("budget error %q carries no usage detail", err)
	}
	// Explain runs the plan once for its actuals; the budget bounds that run
	// too, so the plan comes back rendered with estimates only.
	ex, err := db.Explain("join[%2 = %4](beer, brewery)")
	if err != nil {
		t.Fatalf("Explain under a tiny budget: %v", err)
	}
	if strings.Contains(ex.Physical, "act=") {
		t.Errorf("Explain under a tiny budget ran the plan to completion:\n%s", ex.Physical)
	}
	db.SetMemoryLimit(0)
	r, err := db.QueryXRA("join[%2 = %4](beer, brewery)")
	if err != nil {
		t.Fatalf("unlimited: %v", err)
	}
	if r.Len() != 4 {
		t.Errorf("join cardinality = %d, want 4", r.Len())
	}
	if ex, err := db.Explain("join[%2 = %4](beer, brewery)"); err != nil || !strings.Contains(ex.Physical, "act=") {
		t.Errorf("unlimited Explain carries no actuals (err %v):\n%v", err, ex)
	}
}
