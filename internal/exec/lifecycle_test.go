package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mra/internal/multiset"
	"mra/internal/testleak"
	"mra/internal/tuple"
)

// TestPoolRecoversPanics checks a panicking worker surfaces as a PanicError —
// carrying the worker id and a stack — instead of crashing the process, at
// every gang width including the inlined single-worker path.
func TestPoolRecoversPanics(t *testing.T) {
	defer testleak.Check(t)()
	for _, w := range []int{1, 2, 4, 8} {
		victim := w - 1
		err := gang(context.Background(), w, func(_ context.Context, worker int) error {
			if worker == victim {
				panic(fmt.Sprintf("kaboom-%d", worker))
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want PanicError", w, err)
		}
		if pe.Worker != victim {
			t.Errorf("workers=%d: panic attributed to worker %d, want %d", w, pe.Worker, victim)
		}
		if want := fmt.Sprintf("kaboom-%d", victim); !strings.Contains(pe.Error(), want) {
			t.Errorf("workers=%d: error %q does not carry the panic value %q", w, pe.Error(), want)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("workers=%d: PanicError carries no stack", w)
		}
	}
}

// TestPoolFailureCancelsSiblings checks that one worker's failure cancels the
// gang context the other workers run under, so siblings blocked on it unwind
// promptly instead of running their task to completion.
func TestPoolFailureCancelsSiblings(t *testing.T) {
	defer testleak.Check(t)()
	boom := errors.New("boom")
	var unwound atomic.Int32
	err := gang(context.Background(), 4, func(ctx context.Context, worker int) error {
		if worker == 0 {
			return boom
		}
		select {
		case <-ctx.Done():
			unwound.Add(1)
			return ctx.Err()
		case <-time.After(5 * time.Second):
			return errors.New("sibling never saw the cancellation")
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := unwound.Load(); got != 3 {
		t.Errorf("%d siblings unwound via the gang context, want 3", got)
	}
}

// TestGangErrorPrefersRootCause is the regression test for the error-merge
// audit: before the merge policy, the gang returned the lowest-numbered
// worker's error, so when a high-numbered worker failed and the cancellation
// it triggered made lower-numbered siblings return context.Canceled, the root
// cause was masked by its own side effect.  The merge must surface the real
// error whatever the worker order.
func TestGangErrorPrefersRootCause(t *testing.T) {
	defer testleak.Check(t)()
	boom := errors.New("boom")
	for round := 0; round < 50; round++ {
		err := gang(context.Background(), 8, func(ctx context.Context, worker int) error {
			if worker == 7 {
				return boom
			}
			// Lower-numbered workers fail only as a consequence of worker 7's
			// cancellation — exactly the shape that used to mask the root cause.
			<-ctx.Done()
			return ctx.Err()
		})
		if !errors.Is(err, boom) {
			t.Fatalf("round %d: err = %v, want boom (root cause masked by induced cancellation)", round, err)
		}
	}
}

// TestGangErrorContextOnly checks that when every worker fails with the
// context's own error — a plain user cancellation — that error is returned
// rather than swallowed by the root-cause preference.
func TestGangErrorContextOnly(t *testing.T) {
	defer testleak.Check(t)()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := gang(ctx, 4, func(ctx context.Context, worker int) error {
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestFaultWorkerStartPanic checks the harness can crash a chosen worker and
// that the crash surfaces through the ordinary panic-recovery path.
func TestFaultWorkerStartPanic(t *testing.T) {
	defer testleak.Check(t)()
	restore := InjectFaults(&Faults{WorkerStart: func(worker int) {
		if worker == 2 {
			panic("injected")
		}
	}})
	defer restore()
	err := gang(context.Background(), 4, func(_ context.Context, worker int) error { return nil })
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Worker != 2 {
		t.Fatalf("err = %v, want PanicError from worker 2", err)
	}
}

// TestFaultMorselClaimHook checks the claim hook observes every queue claim
// and that restore uninstalls it.
func TestFaultMorselClaimHook(t *testing.T) {
	var claims atomic.Int32
	restore := InjectFaults(&Faults{MorselClaim: func() { claims.Add(1) }})
	q := NewMorselQueue(10, 3)
	for {
		if _, _, ok := q.Next(); !ok {
			break
		}
	}
	// ceil(10/3) live claims plus the final empty-handed call.
	if got := claims.Load(); got != 5 {
		t.Errorf("claim hook fired %d times, want 5", got)
	}
	restore()
	q2 := NewMorselQueue(3, 3)
	q2.Next()
	if got := claims.Load(); got != 5 {
		t.Errorf("claim hook fired after restore (count %d)", got)
	}
}

// TestExchangeReturnsContextError checks a pre-cancelled exchange fails with
// the context's error and leaks nothing.
func TestExchangeReturnsContextError(t *testing.T) {
	defer testleak.Check(t)()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := testSchema()
	_, err := Gather(ctx, 4, func(ctx context.Context, worker int) (*multiset.Relation, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		default:
			into := multiset.New(s)
			into.Add(tuple.Ints(int64(worker), 0), 1)
			return into, nil
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
