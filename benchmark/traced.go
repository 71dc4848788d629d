package main

import (
	"context"
	"fmt"
	"time"
)

// replay is the outcome of one staged, single-threaded pass over a fixed
// number of generated ops.
type replay struct {
	tr       *tracer
	ops      []opTrace // empty when the pass ran with the no-op tracer
	cnt      counters
	wall     time.Duration
	cpu      time.Duration
	n        int
	failed   int
	firstErr error
	keylog   int
}

// replayEnv loads the database a staged replay runs on.  A served replay
// writes, so each needs a fresh one; the olap replays of a run share one.
func replayEnv(ctx context.Context, s *spec, seed int64) (*env, error) {
	e, err := openDB(ctx, s, seed)
	if err == nil && !s.served() {
		e.refs, err = olapReference(ctx, e, seed)
	}
	return e, err
}

// stagedReplay pushes n ops of the workload's stream through the staged
// pipeline.  Served ops alternate between the two clients' streams, so the
// replay sees the same ops the measured run's sessions send, in a fixed
// interleaving.
func stagedReplay(ctx context.Context, s *spec, e *env, seed int64, n, workers int, record bool) (*replay, error) {
	refs := e.refs
	r := &replay{tr: newTracer(record), n: n}
	var session *stagedSession
	var library *stagedOLAP
	var streams [clients]*opStream
	if s.served() {
		session = newStagedSession(ctx, e.db, r.tr, &r.cnt)
		for i := range streams {
			streams[i] = newOpStream(s.Deck, clientSeed(seed, i))
		}
	} else {
		library = newStagedOLAP(ctx, e.db, r.tr, &r.cnt, workers)
	}

	fail := func(err error) {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
	cpu0, t0 := processCPU(), time.Now()
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if s.served() {
			o := streams[i%clients].next()
			resps, err := session.runOp(o)
			if err == nil && len(o.Lines) == 1 {
				err = checkServed(o.Kind, resps[0])
			}
			if err != nil {
				fail(fmt.Errorf("staged %s: %w", o.Kind, err))
			}
			continue
		}
		q := olapOp(i)
		rows, err := library.runOp(q)
		if err == nil {
			if got := bagChecksum(rows); got != refs[q.Kind] {
				err = fmt.Errorf("result %+v differs from the reference %+v", got, refs[q.Kind])
			}
		}
		if err != nil {
			fail(fmt.Errorf("staged %s at %d workers: %w", q.Kind, workers, err))
		}
	}
	r.wall, r.cpu = time.Since(t0), processCPU()-cpu0
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.served() {
		if err := e.checkBank(); err != nil {
			fail(err)
		}
		kl, ok := e.db.Catalog().(interface {
			KeyLogStats(name string) (entries int, pruned uint64)
		})
		if !ok {
			return nil, fmt.Errorf("staged: catalog %T exposes no KeyLogStats", e.db.Catalog())
		}
		r.keylog, _ = kl.KeyLogStats("account")
	}
	r.ops = selfTimes(r.tr.spans)
	return r, nil
}

// kindP50 is the p50 op time of one kind in a recorded replay, in µs.
func (r *replay) kindP50(kind string) float64 {
	var durs []float64
	for _, o := range r.ops {
		if o.Kind == kind {
			durs = append(durs, float64(o.Dur)/1e3)
		}
	}
	return median(durs)
}

// tracedMetrics runs the staged replays and adds the traced per-layer
// metrics: once recording spans, once with the no-op tracer for the overhead
// figure, and — for the parallel workload — once more at one worker for the
// speed-ups.
func tracedMetrics(ctx context.Context, rep *report, cfg config) error {
	s := cfg.Spec
	n := s.StagedOps
	if cfg.StagedOps > 0 {
		n = cfg.StagedOps
	}
	width := 1
	if !s.served() {
		width = s.Workers
	}
	e, err := replayEnv(ctx, s, cfg.Seed)
	if err != nil {
		return err
	}
	rec, err := stagedReplay(ctx, s, e, cfg.Seed, n, width, true)
	if err != nil {
		return err
	}
	if s.served() {
		if e, err = replayEnv(ctx, s, cfg.Seed); err != nil {
			return err
		}
	}
	quiet, err := stagedReplay(ctx, s, e, cfg.Seed, n, width, false)
	if err != nil {
		return err
	}
	passes := []*replay{rec, quiet}
	var serial *replay
	if width > 1 {
		if serial, err = stagedReplay(ctx, s, e, cfg.Seed, n, 1, true); err != nil {
			return err
		}
		passes = append(passes, serial)
	}
	// Counts taken at the span boundaries repeat exactly for a seed, with or
	// without the tracer.  Allocations are a measurement, not a count, and at
	// two workers the materialised tuples depend on how morsels fall to workers.
	a, b := rec.cnt, quiet.cnt
	a.ExecuteAllocs, b.ExecuteAllocs = 0, 0
	if width == 1 && (a != b || rec.keylog != quiet.keylog) {
		rep.problem("counts differ between two replays of one seed: %+v/%d vs %+v/%d", a, rec.keylog, b, quiet.keylog)
	}
	for _, p := range passes {
		rep.Attempted += p.n
		rep.Failed += p.failed
		if p.firstErr != nil {
			rep.problem("%v", p.firstErr)
		}
	}

	for _, stage := range stageNames {
		sum := summariseStage(rec.ops, stage)
		rep.add(stage+"_us_p50", "us", sum.P50us, sum.N)
		rep.add(stage+"_share", "ratio", sum.Share, 0)
	}
	ops := float64(n)
	rep.add("rewrite.rules_applied_per_op", "count", float64(rec.cnt.RulesApplied)/ops, 0)
	rep.add("plan.intermediate_tuples_per_op", "count", float64(rec.cnt.IntermediateTuples)/ops, 0)
	rep.add("plan.materialised_tuples_per_op", "count", float64(rec.cnt.MaterialisedTuples)/ops, 0)
	rep.add("plan.execute_allocs_per_op", "count", float64(rec.cnt.ExecuteAllocs)/ops, 0)
	rep.add("multiset.diff_rows_per_changed_row", "ratio",
		ratio(float64(rec.cnt.DiffBaseRows), float64(rec.cnt.DiffChangedRows)), 0)
	rep.add("storage.keylog_entries_end", "count", float64(rec.keylog), 0)

	for _, q := range olapQueries {
		v := 0.0
		if serial != nil {
			v = ratio(serial.kindP50(q.Kind), rec.kindP50(q.Kind))
		}
		rep.add("exec.speedup_"+q.Kind, "ratio", v, 0)
	}
	inflation := 0.0
	if serial != nil {
		inflation = ratio(float64(rec.cpu), float64(serial.cpu))
	}
	rep.add("exec.cpu_inflation", "ratio", inflation, 0)

	cov := coverage(rec.ops)
	rep.add("trace.ops", "count", ops, 0)
	rep.add("trace.coverage_frac", "ratio", cov, 0)
	rep.add("trace.overhead_frac", "ratio", ratio(float64(rec.wall), float64(quiet.wall))-1, 0)
	if cov < 0.90 {
		rep.problem("trace.coverage_frac = %.3f: more than a tenth of the traced time is in no layer span", cov)
	}

	rep.Table = whereTable(rec.ops, s.kinds())
	if cfg.TraceOut != "" {
		if err := rec.tr.writeJSONL(cfg.TraceOut); err != nil {
			return fmt.Errorf("--trace-out: %w", err)
		}
	}
	return nil
}
