package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"mra"
	"mra/internal/server"
)

// config is one run of one workload.
type config struct {
	Spec   *spec
	Seed   int64
	Window time.Duration // measured window
	Warmup time.Duration
	Trace  bool
	// StagedOps overrides Spec.StagedOps when positive (tests).
	StagedOps int
	// TraceOut, when set, receives the traced replay's spans as JSON lines.
	TraceOut string
}

// sample is one completed op as its client saw it.
type sample struct {
	kind      string
	done      time.Time
	latency   time.Duration
	elapsedUS int64 // Σ Response.ElapsedUS over the op's round trips
	attempts  int
	conflicts int
	failed    bool
	err       error
}

// reading is the process counters at one instant of the closed loop.
type reading struct {
	at       time.Time
	cpu      time.Duration
	bytesOut int64
	// The rest is read in the traced run only: ReadMemStats stops the world.
	gcCPU   float64 // seconds
	mallocs uint64
	allocB  uint64
	heapB   uint64
	numGC   uint32
	pauses  [256]uint64
}

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeReading(e *env, mem bool) reading {
	r := reading{at: time.Now(), cpu: processCPU(), bytesOut: e.bytesOut.Load()}
	if mem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		metrics.Read(gcCPUSample)
		r.gcCPU = gcCPUSample[0].Value.Float64()
		r.mallocs, r.allocB, r.heapB = ms.Mallocs, ms.TotalAlloc, ms.HeapInuse
		r.numGC, r.pauses = ms.NumGC, ms.PauseNs
	}
	return r
}

// loopResult is what a closed-loop phase observed.
type loopResult struct {
	samples []sample // ops completed inside the measured window, in order of completion
	// readings are the counters at the window's start and end; the traced run
	// has heapSamples-1 more in between.
	readings []reading
}

// heapSamples is how many times the traced run reads the heap size during
// its window, for proc.heap_peak_mb.
const heapSamples = 10

// closedLoop runs the workload's clients, each issuing its next op only when
// the previous one has completed, for warm-up plus window, and returns what
// completed inside the window.  The clients run uninterrupted through both;
// the window is a pair of timestamps.
func closedLoop(ctx context.Context, cfg config, e *env) (loopResult, error) {
	loopCtx, stopLoop := context.WithCancel(ctx)
	defer stopLoop()
	var wg sync.WaitGroup
	n := 1
	if cfg.Spec.served() {
		n = clients
	}
	perClient := make([][]sample, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if cfg.Spec.served() {
				perClient[i] = servedClient(loopCtx, e.sessions[i], e.streams[i])
			} else {
				perClient[i] = libraryClient(ctx, loopCtx, e)
			}
		}(i)
	}

	var res loopResult
	sleepUntil(loopCtx, time.Now().Add(cfg.Warmup))
	res.readings = append(res.readings, takeReading(e, cfg.Trace))
	start, steps := res.readings[0].at, 1
	if cfg.Trace {
		steps = heapSamples
	}
	for k := 1; k <= steps; k++ {
		sleepUntil(loopCtx, start.Add(cfg.Window*time.Duration(k)/time.Duration(steps)))
		res.readings = append(res.readings, takeReading(e, cfg.Trace))
	}
	stopLoop()
	if ctx.Err() != nil {
		e.hangUp() // unblock requests in flight; the run is abandoned
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return res, err
	}
	from, to := start, res.readings[steps].at
	for _, cs := range perClient {
		for _, s := range cs {
			if !s.done.Before(from) && !s.done.After(to) {
				res.samples = append(res.samples, s)
			}
		}
	}
	sort.Slice(res.samples, func(i, j int) bool { return res.samples[i].done.Before(res.samples[j].done) })
	return res, nil
}

func sleepUntil(ctx context.Context, t time.Time) {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
	}
}

// servedClient is one closed-loop session.  A transaction is timed from its
// first statement to its commit reply, conflict retries included.
func servedClient(loopCtx context.Context, c *server.Client, stream *opStream) []sample {
	var out []sample
	for loopCtx.Err() == nil {
		s := servedOp(c, stream.next())
		if s.failed && loopCtx.Err() != nil {
			break // the connection was hung up under the op; not a result
		}
		out = append(out, s)
	}
	return out
}

// servedOp runs one op to its end: until it succeeds, fails, or has lost
// maxRetries conflicts.
func servedOp(c *server.Client, o op) sample {
	s := sample{kind: o.Kind}
	t0 := time.Now()
	for {
		s.attempts++
		conflict, err := servedAttempt(c, o, &s.elapsedUS)
		if err == nil {
			break
		}
		if conflict && s.attempts <= maxRetries {
			s.conflicts++
			continue
		}
		s.failed, s.err = true, err
		break
	}
	s.done = time.Now()
	s.latency = s.done.Sub(t0)
	return s
}

// servedAttempt sends one op once.  A non-nil error with conflict set is the
// first-committer-wins abort a client retries.
func servedAttempt(c *server.Client, o op, elapsedUS *int64) (conflict bool, err error) {
	do := func(line string) (server.Response, error) {
		resp, err := c.Do(line)
		*elapsedUS += resp.ElapsedUS
		return resp, err
	}
	if len(o.Lines) == 1 {
		resp, err := do(o.Lines[0])
		if err != nil {
			return false, err
		}
		if !resp.OK {
			return resp.Conflict, errors.New(resp.Error)
		}
		return false, checkServed(o.Kind, resp)
	}
	lines := append(append([]string{"begin"}, o.Lines...), "commit")
	for _, l := range lines {
		resp, err := do(l)
		if err != nil {
			return false, err
		}
		if !resp.OK {
			if resp.State != server.StateIdle {
				if _, err := do("rollback"); err != nil {
					return false, err
				}
			}
			return resp.Conflict, errors.New(resp.Error)
		}
	}
	return false, nil
}

// libraryQuery is what an analytic caller of the library does: run the query,
// read the rows.
func libraryQuery(ctx context.Context, db *mra.DB, q op) ([][]any, error) {
	var res *mra.Result
	var err error
	if q.XRA {
		res, err = db.QueryXRAContext(ctx, q.Lines[0])
	} else {
		res, err = db.QuerySQLContext(ctx, q.Lines[0])
	}
	if err != nil {
		return nil, err
	}
	return res.Rows(), nil
}

// libraryClient is the olap workloads' single closed-loop caller.  Queries
// run under ctx, not loopCtx, so the one in flight when the window ends
// completes instead of being cancelled.
func libraryClient(ctx, loopCtx context.Context, e *env) []sample {
	var out []sample
	for i := 0; loopCtx.Err() == nil; i++ {
		q := olapOp(i)
		s := sample{kind: q.Kind, attempts: 1}
		t0 := time.Now()
		rows, err := libraryQuery(ctx, e.db, q)
		s.done = time.Now()
		s.latency = s.done.Sub(t0)
		if err == nil {
			if got := bagChecksum(rows); got != e.refs[q.Kind] {
				err = fmt.Errorf("%s: result %+v differs from the reference %+v", q.Kind, got, e.refs[q.Kind])
			}
		}
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			s.failed, s.err = true, err
		}
		out = append(out, s)
	}
	return out
}

// metric is one reported number.
type metric struct {
	Name  string
	Unit  string
	Value float64
	// N is the number of samples behind a timing; 0 when not applicable.
	N int
}

// report is the outcome of one run.
type report struct {
	Workload  string
	Seed      int64
	Trace     bool
	Attempted int
	Failed    int
	// Problems lists every reason the run is not correct.
	Problems []string
	Metrics  []metric
	// Table is the traced run's "where the time goes" table.
	Table string
}

func (r *report) correct() bool { return len(r.Problems) == 0 }

func (r *report) add(name, unit string, v float64, n int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: v, N: n})
}

func (r *report) problem(format string, args ...any) {
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// runWorkload runs one workload once: the measured run when cfg.Trace is
// false, the traced run otherwise.
func runWorkload(ctx context.Context, cfg config) (*report, error) {
	rep := &report{Workload: cfg.Spec.Name, Seed: cfg.Seed, Trace: cfg.Trace}

	runtime.GC() // what an earlier run of this process left behind is not this run's
	t0 := time.Now()
	e, err := setup(ctx, cfg.Spec, cfg.Seed)
	if err != nil {
		return nil, err
	}
	defer e.close()
	load := time.Since(t0)

	loop, err := closedLoop(ctx, cfg, e)
	if err != nil {
		return nil, err
	}
	rep.Attempted = len(loop.samples)
	for _, s := range loop.samples {
		if s.failed {
			rep.Failed++
			rep.problem("op %s failed: %v", s.kind, s.err)
		}
	}
	if rep.Attempted == rep.Failed {
		rep.problem("no op succeeded inside the window")
	}
	if cfg.Spec.served() {
		if err := e.checkBank(); err != nil {
			rep.problem("%v", err)
		}
	}
	if err := e.close(); err != nil {
		rep.problem("shutdown: %v", err)
	}

	if !cfg.Trace {
		// Set-up ends where the measured window begins: data generation, load,
		// ANALYZE, server start, sessions and the warm-up.
		endToEndMetrics(rep, loop, loop.readings[0].at.Sub(t0))
		return rep, nil
	}
	layerMetrics(rep, cfg.Spec, loop, load)
	if err := tracedMetrics(ctx, rep, cfg); err != nil {
		return nil, err
	}
	return rep, nil
}

func latenciesUS(samples []sample, kind string) []float64 {
	var out []float64
	for _, s := range samples {
		if kind == "" || s.kind == kind {
			out = append(out, float64(s.latency)/1e3)
		}
	}
	return out
}

// mixP50 is the median latency of each op kind, averaged geometrically over
// the mix: exp(Σ share·ln p50) with each kind's share of the ops by count.
//
// The plain median over all ops says little on these mixes.  Half of
// bank_mix's ops are reads of 0.5 ms and half are writes of 5 ms, and the six
// olap queries come in equal counts, so the median lies between two latency
// modes and all kinds but the one next to it can change without moving it (it
// is still reported, as client.p50_us).  In the geometric mean a kind that
// gets twice as slow moves the result by 2^share whether the kind is fast or
// slow.
func mixP50(samples []sample) float64 {
	var logSum float64
	for _, k := range allKinds {
		if l := latenciesUS(samples, k); len(l) > 0 {
			logSum += float64(len(l)) * math.Log(percentile(l, 50))
		}
	}
	if len(samples) == 0 {
		return 0
	}
	return math.Exp(logSum / float64(len(samples)))
}

// endToEndMetrics derives the metrics a user of the system would see, each
// over the whole measured window.
func endToEndMetrics(rep *report, loop loopResult, setup time.Duration) {
	first, last := loop.readings[0], loop.readings[len(loop.readings)-1]
	n := len(loop.samples)
	rep.add("ops_per_s", "1/s", ratio(float64(n-rep.Failed), last.at.Sub(first.at).Seconds()), n)
	rep.add("p50_us", "us", mixP50(loop.samples), n)
	rep.add("p95_us", "us", percentile(latenciesUS(loop.samples, ""), 95), n)
	rep.add("cpu_ms_per_op", "ms", ratio(float64(last.cpu-first.cpu)/1e6, float64(n)), n)
	rep.add("setup_s", "s", setup.Seconds(), 1)
}

var allKinds = []string{
	"analytics", "transfer", "hotspot", "point", "agg", "wide",
	"q_star", "q_chain", "q_scan", "q_group", "q_group_hc", "q_setops",
}

// layerMetrics derives the per-layer numbers that need no tracing: what the
// clients and the process counters saw during the closed loop.
func layerMetrics(rep *report, s *spec, loop loopResult, load time.Duration) {
	samples := loop.samples
	first, last := loop.readings[0], loop.readings[len(loop.readings)-1]
	nOps := float64(len(samples))
	lat := latenciesUS(samples, "")
	rep.add("client.p50_us", "us", percentile(lat, 50), len(lat))
	rep.add("client.p99_us", "us", percentile(lat, 99), len(lat))
	rep.add("client.failed_frac", "ratio", ratio(float64(rep.Failed), float64(rep.Attempted)), rep.Attempted)
	for _, k := range allKinds {
		l := latenciesUS(samples, k)
		rep.add("client."+k+"_p50_us", "us", percentile(l, 50), len(l))
	}

	var elapsed, wire []float64
	var commits, conflicts, attempts, exhausted float64
	for _, sm := range samples {
		if s.served() {
			elapsed = append(elapsed, float64(sm.elapsedUS))
			wire = append(wire, float64(sm.latency)/1e3-float64(sm.elapsedUS))
		}
		if sm.failed {
			if sm.conflicts == maxRetries {
				exhausted++
			}
			continue
		}
		commits++
		conflicts += float64(sm.conflicts)
		attempts += float64(sm.attempts)
	}
	rep.add("server.elapsed_us_p50", "us", percentile(elapsed, 50), len(elapsed))
	rep.add("server.wire_us_p50", "us", percentile(wire, 50), len(wire))
	rep.add("server.bytes_out_per_op", "B", ratio(float64(last.bytesOut-first.bytesOut), nOps), 0)
	rep.add("txn.conflicts_per_commit", "ratio", ratio(conflicts, commits), 0)
	rep.add("txn.attempts_per_commit", "ratio", ratio(attempts, commits), 0)
	rep.add("txn.retries_exhausted", "count", exhausted, 0)

	rep.add("proc.allocs_per_op", "count", ratio(float64(last.mallocs-first.mallocs), nOps), 0)
	rep.add("proc.alloc_kb_per_op", "KiB", ratio(float64(last.allocB-first.allocB)/1024, nOps), 0)
	rep.add("proc.gc_cpu_frac", "ratio", ratio(last.gcCPU-first.gcCPU, (last.cpu-first.cpu).Seconds()), 0)
	var pauseMax uint64
	for g := last.numGC; g > first.numGC && g+256 > last.numGC; g-- {
		// PauseNs is a ring: cycle g's pause sits at (g+255)%256.
		if p := last.pauses[(g+255)%256]; p > pauseMax {
			pauseMax = p
		}
	}
	rep.add("proc.gc_pause_ms_max", "ms", float64(pauseMax)/1e6, int(last.numGC-first.numGC))
	var heapPeak uint64
	for _, r := range loop.readings {
		if r.heapB > heapPeak {
			heapPeak = r.heapB
		}
	}
	rep.add("proc.heap_peak_mb", "MiB", float64(heapPeak)/(1<<20), len(loop.readings))
	rep.add("mra.load_s", "s", load.Seconds(), 1)
}
