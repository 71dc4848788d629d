// Command benchmark is the repository's end-to-end benchmark: served bank
// traffic against an in-process xraserve and analytic queries through the
// library, measured in closed loops, checked, and — in a separate traced
// run — broken down by layer.  See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// Exit codes.
const (
	exitOK        = 0
	exitIncorrect = 1 // an op failed, a check failed, or two sets disagreed
	exitUsage     = 2
	exitStopped   = 3 // SIGINT, SIGTERM or the --max-s watchdog
)

const (
	defaultSeconds = 28 // run_seconds in BENCHMARK.json
	// maxRunSeconds is the default watchdog budget per run the invocation
	// makes: below the 180 s an acceptance run is allowed.
	maxRunSeconds = 170
	// stopGrace is how long a stopped run may take to wind down before the
	// process exits without it.
	stopGrace = 10 * time.Second
)

// warmup is how long the clients run before the measured window begins.  A
// variable only so that a test of the watchdog need not wait for it.
var warmup = 2 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: bank_mix, bank_read, olap_serial, olap_parallel, or all")
	seed := fs.Int64("seed", 1, "seed of the generated data and op streams")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the measured window in seconds")
	trace := fs.Int("trace", -1, "0: measured run, end-to-end metrics; 1: traced run, per-layer metrics; unset: both")
	repeat := fs.Int("repeat", 0, "run this many full sets of measured runs and compare them against the bounds")
	maxS := fs.Float64("max-s", 0, "exit by itself, non-zero, when the whole command has not finished after this many seconds (default: 170 per run it makes)")
	traceOut := fs.String("trace-out", "", "write the traced replay's spans to this file as JSON lines")
	printGolden := fs.Bool("print-golden", false, "print golden.json for --seed and exit")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected argument %q\n", fs.Arg(0))
		return exitUsage
	}
	var chosen []*spec
	for i := range specs {
		if *workload == "all" || *workload == specs[i].Name {
			chosen = append(chosen, &specs[i])
		}
	}
	if len(chosen) == 0 || *seconds <= 0 || *trace > 1 {
		fmt.Fprintf(stderr, "unknown workload %q, or --seconds/--trace out of range\n", *workload)
		return exitUsage
	}

	// Load comes from this one process on two cores; the clients, the server
	// sessions and the parallel plans' workers all share them.
	runtime.GOMAXPROCS(2)
	if n := runtime.NumCPU(); n < 2 {
		fmt.Fprintf(stderr, "warning: nproc=%d, below the 2 the benchmark is calibrated for\n", n)
	}

	// One deadline covers the whole command, so that the benchmark exits by
	// itself instead of being killed with work half done.  Every run's context
	// derives from it, and should the wind-down hang as well, the timer
	// behind it ends the process.
	runs := len(chosen) * max(*repeat, 1)
	if *repeat == 0 && *trace < 0 {
		runs *= 2
	}
	if *maxS <= 0 {
		*maxS = float64(maxRunSeconds * runs)
	}
	limit := time.Duration(*maxS * float64(time.Second))
	backstop := time.AfterFunc(limit+stopGrace, func() {
		fmt.Fprintf(stderr, "stopped: still running %v after --max-s=%g\n", stopGrace, *maxS)
		os.Exit(exitStopped)
	})
	defer backstop.Stop()
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(sigCtx, limit)
	defer cancel()

	window := time.Duration(*seconds * float64(time.Second))
	one := func(s *spec, traced bool) (*report, error) {
		cfg := config{Spec: s, Seed: *seed, Window: window, Warmup: warmup,
			Trace: traced, TraceOut: *traceOut}
		if traced {
			// The traced run spends half its window in the closed loop and the
			// rest of its time in the fixed-size staged replays.
			cfg.Window, cfg.Warmup = window/2, time.Second
		}
		return runWorkload(ctx, cfg)
	}
	// failed reports why a run produced no result and picks the exit code.
	failed := func(err error) int {
		switch {
		case sigCtx.Err() != nil:
			fmt.Fprintf(stderr, "stopped by a signal: %v\n", err)
			return exitStopped
		case ctx.Err() != nil:
			fmt.Fprintf(stderr, "stopped: the command exceeded --max-s=%g: %v\n", *maxS, err)
			return exitStopped
		}
		fmt.Fprintln(stderr, err)
		return exitIncorrect
	}

	switch {
	case *printGolden:
		g, err := makeGolden(ctx, *seed)
		if err != nil {
			return failed(err)
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		enc.Encode(g)
		return exitOK

	case *repeat > 0:
		code, err := repeatSets(stdout, chosen, *repeat, func(s *spec) (*report, error) { return one(s, false) })
		if err != nil {
			return failed(err)
		}
		return code
	}

	fmt.Fprintf(stdout, "nproc=%d gomaxprocs=%d %s seed=%d window=%gs clients=%d (closed loop, no think time)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *seed, *seconds, clients)
	code := exitOK
	for _, s := range chosen {
		for _, traced := range []bool{false, true} {
			if *trace >= 0 && traced != (*trace == 1) {
				continue
			}
			rep, err := one(s, traced)
			if err != nil {
				return failed(fmt.Errorf("%s: %w", s.Name, err))
			}
			printReport(stdout, rep)
			if !rep.correct() {
				code = exitIncorrect
			}
		}
	}
	return code
}

// printReport prints every metric by name with its unit, then the result as
// one JSON object on the last line.
func printReport(w io.Writer, r *report) {
	mode := "measured"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s run, seed %d) ==\n", r.Workload, mode, r.Seed)
	for _, m := range r.Metrics {
		if m.N > 0 {
			fmt.Fprintf(w, "%-40s %14.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		} else {
			fmt.Fprintf(w, "%-40s %14.4f %s\n", m.Name, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "%-40s %14d\n%-40s %14d\n%-40s %14.6f ratio\n", "ops_attempted", r.Attempted, "ops_failed", r.Failed,
		"failed_frac", ratio(float64(r.Failed), float64(r.Attempted)))
	for _, p := range r.Problems {
		fmt.Fprintf(w, "PROBLEM: %s\n", p)
	}
	if r.Table != "" {
		fmt.Fprintf(w, "\nwhere the time goes, %s (p50 self time per op that has the stage, share of the kind's traced time):\n\n%s\n", r.Workload, r.Table)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, map[string]value{}}
	for _, m := range r.Metrics {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, _ := json.Marshal(out) // cannot fail: plain numbers and strings
	fmt.Fprintf(w, "%s\n", line)
}

// makeGolden computes golden.json's content for a seed.
func makeGolden(ctx context.Context, seed int64) (goldenFile, error) {
	g := goldenFile{Seed: seed}
	e, err := openDB(ctx, findSpec("olap_serial"), seed)
	if err != nil {
		return g, err
	}
	g.Queries, err = olapBags(ctx, e.db)
	return g, err
}

// repeatSets runs n full sets of measured runs and prints, per workload and
// end-to-end metric, the median, quartiles and relative spread across the
// sets.  It reports disagreement when the worst set is further from the best
// than the metric's bound allows.
func repeatSets(w io.Writer, chosen []*spec, n int, measure func(*spec) (*report, error)) (int, error) {
	values := map[string][]float64{} // "workload/metric" → one value per set
	code := exitOK
	for set := 1; set <= n; set++ {
		for _, s := range chosen {
			rep, err := measure(s)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", s.Name, err)
			}
			if !rep.correct() {
				code = exitIncorrect
				for _, p := range rep.Problems {
					fmt.Fprintf(w, "set %d %s PROBLEM: %s\n", set, s.Name, p)
				}
			}
			for _, m := range rep.Metrics {
				values[s.Name+"/"+m.Name] = append(values[s.Name+"/"+m.Name], m.Value)
			}
			fmt.Fprintf(w, "set %d/%d %s done (%d ops, %d failed)\n", set, n, s.Name, rep.Attempted, rep.Failed)
		}
	}
	fmt.Fprintf(w, "\nnproc=%d %s %s, %d sets\n", runtime.NumCPU(), runtime.Version(), time.Now().Format("2006-01-02"), n)
	fmt.Fprintf(w, "%-14s %-14s %12s %12s %12s %8s %8s  %s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound", "")
	for _, s := range chosen {
		for _, d := range endToEnd {
			xs := values[s.Name+"/"+d.Name]
			q1, q2, q3 := quartiles(xs)
			lo, hi := xs[0], xs[0]
			for _, x := range xs {
				lo, hi = min(lo, x), max(hi, x)
			}
			verdict := "ok"
			if ratio(hi-lo, q2) > d.Bound {
				verdict = "SETS DISAGREE"
				code = exitIncorrect
			}
			fmt.Fprintf(w, "%-14s %-14s %12.4f %12.4f %12.4f %7.2f%% %7.0f%%  %s\n",
				s.Name, d.Name, q1, q2, q3, 100*relSpread(xs), 100*d.Bound, verdict)
		}
	}
	return code, nil
}

// endToEnd lists the end-to-end metrics with their bounds: the share of the
// earlier median by which a metric may worsen before it counts as a
// regression.  BENCHMARK.json carries the same numbers; a test holds the two
// together.
//
// The bounds are as wide as BENCHMARK.json allows.  Calibration on the 2-core
// box this was written on (README.md, "Observed spreads") found the machine
// itself flipping between states about 10 % apart for minutes at a time, so a
// tighter bound is one the same code could not meet.
var endToEnd = []struct {
	Name  string
	Bound float64
}{
	{"ops_per_s", 0.25},
	{"p50_us", 0.25},
	{"p95_us", 0.25},
	{"cpu_ms_per_op", 0.25},
	{"setup_s", 0.25},
}
