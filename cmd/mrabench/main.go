// Command mrabench regenerates the experiment series documented in
// EXPERIMENTS.md (E1–E10).  Each experiment prints one table of measurements
// to stdout; -run selects a subset by experiment id.
//
// The paper itself contains no measured tables or figures (it is a formal
// paper); the experiments quantify its theorems, worked examples and explicit
// practical claims on this implementation.  See EXPERIMENTS.md for the
// mapping.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"mra/internal/algebra"
	"mra/internal/eval"
	"mra/internal/multiset"
	"mra/internal/plan"
	"mra/internal/rewrite"
	"mra/internal/scalar"
	"mra/internal/setalg"
	"mra/internal/stmt"
	"mra/internal/storage"
	"mra/internal/txn"
	"mra/internal/value"
	"mra/internal/workload"
)

func main() {
	run := flag.String("run", "all", "comma-separated experiment ids to run (e.g. E1,E5,E7) or 'all'")
	jsonLabel := flag.String("json", "", "instead of the experiment tables, run the E1/E2 benchmark set and write machine-readable BENCH_<label>.json")
	benchSet := flag.String("set", "main", "with -json: which benchmark series to run — 'main' (E1/E2/E11/E12), 'joins' (E13 multi-join shapes through the join-order enumerator), or 'all'")
	compare := flag.String("compare", "", "with -json: compare the fresh series against a committed BENCH_<label>.json baseline and exit non-zero on regression")
	maxRatio := flag.Float64("maxratio", 2.0, "with -compare: maximum allowed ns/op ratio (measured / baseline) before the run counts as a regression")
	flag.IntVar(&workers, "workers", 1, "parallel worker count for the physical engine (1 = serial); applies to the experiments and the main -json series")
	flag.IntVar(&morselSize, "morsel", 0, "morsel size for parallel scans (0 = cost-model sizing); applies wherever -workers enables parallel plans")
	flag.Parse()

	if *jsonLabel != "" {
		out, err := writeBenchJSON(*jsonLabel, *benchSet)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *compare != "" {
			if err := compareBaseline(out, *compare, *maxRatio); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		return
	}
	if *compare != "" {
		fmt.Fprintln(os.Stderr, "-compare requires -json")
		os.Exit(1)
	}

	selected, err := selectExperiments(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, e := range experiments {
		if !selected[e.id] {
			continue
		}
		fmt.Printf("== %s: %s ==\n", e.id, e.name)
		e.fn()
		fmt.Println()
	}
}

// experiments lists the E-series tables in print order.
var experiments = []struct {
	id   string
	name string
	fn   func()
}{
	{"E1", "Theorem 3.1: native vs derived intersection and join", e1},
	{"E2", "Theorem 3.2: selection/projection distribution over union", e2},
	{"E3", "Theorem 3.3: join associativity and order cost", e3},
	{"E4", "Example 3.1: the Dutch-beers query at scale", e4},
	{"E5", "Example 3.2: aggregate projection push-in, bag vs set semantics", e5},
	{"E6", "Example 4.1: update statement throughput", e6},
	{"E7", "Duplicate-removal cost (bag vs set operators)", e7},
	{"E8", "Transaction atomicity and throughput", e8},
	{"E9", "Optimizer ablation: rewritten vs naive plans", e9},
	{"E10", "Transitive-closure extension scaling", e10},
}

// selectExperiments resolves a -run list (comma-separated ids, or 'all',
// case-insensitive) to the set of experiment ids to run.  A list that names
// no known experiment is an error, so a typo cannot pass as an empty success.
func selectExperiments(run string) (map[string]bool, error) {
	selected := map[string]bool{}
	for _, tok := range strings.Split(strings.ToUpper(run), ",") {
		tok = strings.TrimSpace(tok)
		for _, e := range experiments {
			if tok == "ALL" || tok == e.id {
				selected[e.id] = true
			}
		}
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("no experiment matches -run %q (want 'all' or ids E1..E%d)", run, len(experiments))
	}
	return selected, nil
}

// workers is the -workers flag: the parallelism degree of the physical
// engine used by the experiments and the main -json benchmark series.
var workers = 1

// morselSize is the -morsel flag: the morsel size of parallel scans, zero
// meaning the planner's cost-model sizing.
var morselSize = 0

// timeIt measures a single evaluation.
func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// evalMust evaluates an expression with the physical engine at the configured
// worker count and morsel size.
func evalMust(e algebra.Expr, src eval.Source) *multiset.Relation {
	r, err := (&eval.Engine{Planner: plan.Planner{Workers: workers, MorselSize: morselSize}}).Eval(e, src)
	if err != nil {
		panic(err)
	}
	return r
}

func header(cols ...string) { fmt.Println(strings.Join(cols, "\t")) }

func e1() {
	header("rows/side", "intersect_native", "intersect_derived", "join_native", "join_as_sigma_product", "equal")
	for _, n := range []int{200, 1000, 4000} {
		fact, dim := workload.JoinPair(workload.JoinConfig{LeftTuples: n, RightTuples: n / 2, Seed: 1})
		src := eval.MapSource{"a": fact, "b": fact.Clone(), "fact": fact, "dim": dim}
		a, b := algebra.NewRel("a"), algebra.NewRel("b")

		var nativeI, derivedI, nativeJ, sigmaJ *multiset.Relation
		tNI := timeIt(func() { nativeI = evalMust(algebra.NewIntersect(a, b), src) })
		tDI := timeIt(func() {
			derivedI = evalMust(algebra.NewDifference(a, algebra.NewDifference(a, b)), src)
		})
		joinCond := scalar.Eq(0, 2)
		tNJ := timeIt(func() {
			nativeJ = evalMust(algebra.NewJoin(joinCond, algebra.NewRel("fact"), algebra.NewRel("dim")), src)
		})
		tSJ := timeIt(func() {
			sigmaJ = evalMust(algebra.NewSelect(joinCond, algebra.NewProduct(algebra.NewRel("fact"), algebra.NewRel("dim"))), src)
		})
		equal := nativeI.Equal(derivedI) && nativeJ.Equal(sigmaJ)
		fmt.Printf("%d\t%v\t%v\t%v\t%v\t%v\n", n, tNI, tDI, tNJ, tSJ, equal)
	}
}

func e2() {
	header("rows/side", "sigma_over_union", "union_of_sigmas", "pi_over_union", "union_of_pis", "results_equal", "delta_distributes")
	for _, n := range []int{1000, 10000} {
		r1 := workload.Duplicated(workload.DuplicationConfig{DistinctTuples: n, DuplicationFactor: 2, Seed: 1})
		r2 := workload.Duplicated(workload.DuplicationConfig{DistinctTuples: n, DuplicationFactor: 2, Seed: 2})
		src := eval.MapSource{"e1": r1, "e2": r2}
		pred := scalar.NewCompare(value.CmpLt, scalar.NewAttr(1), scalar.NewConst(value.NewInt(1<<15)))
		e1r, e2r := algebra.NewRel("e1"), algebra.NewRel("e2")

		var a, b, c, d *multiset.Relation
		t1 := timeIt(func() { a = evalMust(algebra.NewSelect(pred, algebra.NewUnion(e1r, e2r)), src) })
		t2 := timeIt(func() {
			b = evalMust(algebra.NewUnion(algebra.NewSelect(pred, e1r), algebra.NewSelect(pred, e2r)), src)
		})
		t3 := timeIt(func() { c = evalMust(algebra.NewProject([]int{0}, algebra.NewUnion(e1r, e2r)), src) })
		t4 := timeIt(func() {
			d = evalMust(algebra.NewUnion(algebra.NewProject([]int{0}, e1r), algebra.NewProject([]int{0}, e2r)), src)
		})
		deltaLeft := evalMust(algebra.NewUnique(algebra.NewUnion(e1r, e1r)), src)
		deltaRight := evalMust(algebra.NewUnion(algebra.NewUnique(e1r), algebra.NewUnique(e1r)), src)
		fmt.Printf("%d\t%v\t%v\t%v\t%v\t%v\t%v\n", n, t1, t2, t3, t4,
			a.Equal(b) && c.Equal(d), deltaLeft.Equal(deltaRight))
	}
}

func e3() {
	header("fact_rows", "(fact⋈dim)⋈dim2", "fact⋈(dim⋈dim2)", "equal")
	for _, n := range []int{2000, 8000} {
		fact, dim := workload.JoinPair(workload.JoinConfig{LeftTuples: n, RightTuples: 200, Seed: 3})
		_, dim2 := workload.JoinPair(workload.JoinConfig{LeftTuples: 10, RightTuples: 200, Seed: 4})
		src := eval.MapSource{"fact": fact, "dim": dim, "dim2": dim2}
		f, d1, d2 := algebra.NewRel("fact"), algebra.NewRel("dim"), algebra.NewRel("dim2")

		var left, right *multiset.Relation
		tl := timeIt(func() {
			left = evalMust(algebra.NewJoin(scalar.Eq(2, 4), algebra.NewJoin(scalar.Eq(0, 2), f, d1), d2), src)
		})
		tr := timeIt(func() {
			right = evalMust(algebra.NewJoin(scalar.Eq(0, 2), f, algebra.NewJoin(scalar.Eq(0, 2), d1, d2)), src)
		})
		fmt.Printf("%d\t%v\t%v\t%v\n", n, tl, tr, left.Equal(right))
	}
}

func e4() {
	header("breweries", "beers", "algebra_time", "result_tuples", "duplicates_present")
	for _, b := range []int{20, 100, 400} {
		beer, brewery := workload.Beers(workload.BeerConfig{Breweries: b, BeersPerBrewery: 20, DuplicateNames: true, Seed: 5})
		src := eval.MapSource{"beer": beer, "brewery": brewery}
		expr := algebra.NewProject([]int{0},
			algebra.NewSelect(
				scalar.NewCompare(value.CmpEq, scalar.NewAttr(5), scalar.NewConst(value.NewString("netherlands"))),
				algebra.NewJoin(scalar.Eq(1, 3), algebra.NewRel("beer"), algebra.NewRel("brewery"))))
		var res *multiset.Relation
		t := timeIt(func() { res = evalMust(expr, src) })
		fmt.Printf("%d\t%d\t%v\t%d\t%v\n", b, beer.Cardinality(), t, res.Cardinality(),
			res.Cardinality() > uint64(res.DistinctCount()))
	}
}

func e5() {
	header("beers", "bag_direct", "bag_pushed", "bag_equal", "set_pushed_matches_bag(expected_false)", "intermediate_direct", "intermediate_pushed")
	for _, b := range []int{50, 200} {
		beer, brewery := workload.Beers(workload.BeerConfig{Breweries: b, BeersPerBrewery: 20, DuplicateNames: true, DiscreteAlcohol: true, Seed: 6})
		src := eval.MapSource{"beer": beer, "brewery": brewery}
		join := algebra.NewJoin(scalar.Eq(1, 3), algebra.NewRel("beer"), algebra.NewRel("brewery"))
		direct := algebra.NewGroupBy([]int{5}, algebra.AggAvg, 2, join)
		pushed := algebra.NewGroupBy([]int{1}, algebra.AggAvg, 0, algebra.NewProject([]int{2, 5}, join))

		engDirect := &eval.Engine{CollectStats: true}
		engPushed := &eval.Engine{CollectStats: true}
		var rd, rp *multiset.Relation
		td := timeIt(func() {
			var err error
			rd, err = engDirect.Eval(direct, src)
			if err != nil {
				panic(err)
			}
		})
		tp := timeIt(func() {
			var err error
			rp, err = engPushed.Eval(pushed, src)
			if err != nil {
				panic(err)
			}
		})
		setRes, err := (setalg.Engine{}).Eval(pushed, src)
		if err != nil {
			panic(err)
		}
		// Floating-point sums accumulate in map order, so compare the per-group
		// averages with a tolerance rather than bit-exactly.
		fmt.Printf("%d\t%v\t%v\t%v\t%v\t%d\t%d\n",
			beer.Cardinality(), td, tp, avgsMatch(rd, rp, 1e-9), avgsMatch(rd, setRes, 1e-9),
			engDirect.Stats.IntermediateTuples, engPushed.Stats.IntermediateTuples)
	}
}

// avgsMatch compares two (group, average) relations group-wise with an
// absolute tolerance.
func avgsMatch(a, b *multiset.Relation, tol float64) bool {
	collect := func(r *multiset.Relation) map[string]float64 {
		m := make(map[string]float64)
		for _, t := range r.Tuples() {
			m[t.At(0).Str()] = t.At(1).Float()
		}
		return m
	}
	ma, mb := collect(a), collect(b)
	if len(ma) != len(mb) {
		return false
	}
	for k, va := range ma {
		vb, ok := mb[k]
		if !ok || va-vb > tol || vb-va > tol {
			return false
		}
	}
	return true
}

func e6() {
	header("accounts", "updates", "total_time", "per_update")
	for _, n := range []int{100, 1000} {
		db := storage.NewDatabase()
		if err := db.CreateRelation(workload.AccountsSchema()); err != nil {
			panic(err)
		}
		if _, err := db.Apply(map[string]*multiset.Relation{"account": workload.Accounts(n, 7)}); err != nil {
			panic(err)
		}
		mgr := txn.NewManager(db)
		const updates = 50
		items := []scalar.Expr{
			scalar.NewAttr(0), scalar.NewAttr(1),
			scalar.NewArith(value.OpMul, scalar.NewAttr(2), scalar.NewConst(value.NewFloat(1.01))),
		}
		total := timeIt(func() {
			for i := 0; i < updates; i++ {
				sel := algebra.NewSelect(
					scalar.NewCompare(value.CmpLt, scalar.NewAttr(0), scalar.NewConst(value.NewInt(int64(n/2)))),
					algebra.NewRel("account"))
				if _, err := mgr.Run(stmt.Program{stmt.Update{Target: "account", Selection: sel, Items: items}}); err != nil {
					panic(err)
				}
			}
		})
		fmt.Printf("%d\t%d\t%v\t%v\n", n, updates, total, total/updates)
	}
}

func e7() {
	header("dup_factor", "distinct", "total", "bag_project", "set_project(dedup)", "set/bag_ratio")
	for _, dup := range []int{1, 2, 4, 8, 16, 32, 64} {
		r := workload.Duplicated(workload.DuplicationConfig{DistinctTuples: 2000, DuplicationFactor: dup, Seed: 8})
		src := eval.MapSource{"r": r}
		proj := algebra.NewProject([]int{1}, algebra.NewRel("r"))
		var bagTime, setTime time.Duration
		bagTime = timeIt(func() { evalMust(proj, src) })
		setTime = timeIt(func() {
			if _, err := (setalg.Engine{}).Eval(proj, src); err != nil {
				panic(err)
			}
		})
		ratio := float64(setTime) / float64(bagTime)
		fmt.Printf("%d\t%d\t%d\t%v\t%v\t%.2f\n", dup, r.DistinctCount(), r.Cardinality(), bagTime, setTime, ratio)
	}
}

func e8() {
	header("accounts", "transactions", "committed", "aborted_by_conflict", "atomicity_held", "throughput_tx_per_s")
	n := 200
	db := storage.NewDatabase()
	if err := db.CreateRelation(workload.AccountsSchema()); err != nil {
		panic(err)
	}
	if _, err := db.Apply(map[string]*multiset.Relation{"account": workload.Accounts(n, 9)}); err != nil {
		panic(err)
	}
	mgr := txn.NewManager(db)
	const txCount = 200
	committed, aborted := 0, 0
	items := []scalar.Expr{
		scalar.NewAttr(0), scalar.NewAttr(1),
		scalar.NewArith(value.OpAdd, scalar.NewAttr(2), scalar.NewConst(value.NewFloat(1))),
	}
	start := time.Now()
	for i := 0; i < txCount; i++ {
		tx := mgr.Begin()
		sel := algebra.NewSelect(
			scalar.NewCompare(value.CmpEq, scalar.NewAttr(0), scalar.NewConst(value.NewInt(int64(i%n)))),
			algebra.NewRel("account"))
		if err := tx.Exec(stmt.Update{Target: "account", Selection: sel, Items: items}); err != nil {
			panic(err)
		}
		if i%10 == 9 {
			// Force an abort: the database state must remain exactly D_t.
			tx.Abort()
			aborted++
			continue
		}
		if err := tx.Commit(); err != nil {
			aborted++
			continue
		}
		committed++
	}
	elapsed := time.Since(start)
	// Atomicity check: total balance equals initial total plus one unit per
	// committed transaction (aborted transactions must have left no trace).
	sum := sumBalances(db)
	initial := sumOf(workload.Accounts(n, 9))
	atomic := int(sum-initial+0.5) == committed
	fmt.Printf("%d\t%d\t%d\t%d\t%v\t%.0f\n", n, txCount, committed, aborted, atomic,
		float64(txCount)/elapsed.Seconds())
}

func sumBalances(db *storage.Database) float64 {
	r, _ := db.Relation("account")
	return sumOf(r)
}

func sumOf(r *multiset.Relation) float64 {
	total := 0.0
	for _, t := range r.Tuples() {
		total += t.At(2).Float()
	}
	return total
}

func e9() {
	header("query", "reference_eval", "physical_naive_plan", "physical_optimised_plan", "speedup_vs_naive_plan", "results_equal")
	fact, dim := workload.JoinPair(workload.JoinConfig{LeftTuples: 3000, RightTuples: 150, Seed: 10})
	src := eval.MapSource{"fact": fact, "dim": dim}
	cat := src.Catalog()
	rw := rewrite.NewRewriter()
	queries := map[string]algebra.Expr{
		"sigma_product": algebra.NewSelect(
			scalar.NewAnd(scalar.Eq(0, 2), scalar.NewCompare(value.CmpGe, scalar.NewAttr(3), scalar.NewConst(value.NewInt(50)))),
			algebra.NewProduct(algebra.NewRel("fact"), algebra.NewRel("dim"))),
		"groupby_wide_join": algebra.NewGroupBy([]int{3}, algebra.AggSum, 1,
			algebra.NewJoin(scalar.Eq(0, 2), algebra.NewRel("fact"), algebra.NewRel("dim"))),
		"selection_cascade": algebra.NewSelect(
			scalar.NewCompare(value.CmpGe, scalar.NewAttr(1), scalar.NewConst(value.NewInt(100))),
			algebra.NewSelect(
				scalar.NewCompare(value.CmpLt, scalar.NewAttr(0), scalar.NewConst(value.NewInt(100))),
				algebra.NewRel("fact"))),
	}
	for name, q := range queries {
		var reference, naive, optimised *multiset.Relation
		tRef := timeIt(func() {
			var err error
			reference, err = (eval.Reference{}).Eval(q, src)
			if err != nil {
				panic(err)
			}
		})
		tn := timeIt(func() { naive = evalMust(q, src) })
		opt, _ := rw.Rewrite(q, cat)
		to := timeIt(func() { optimised = evalMust(opt, src) })
		speedup := float64(tn) / float64(to)
		fmt.Printf("%s\t%v\t%v\t%v\t%.2fx\t%v\n", name, tRef, tn, to, speedup,
			naive.Equal(optimised) && reference.Equal(naive))
	}
}

func e10() {
	header("nodes", "edges", "closure_pairs", "time")
	for _, nodes := range []int{32, 64, 128, 256} {
		g := workload.Graph(workload.GraphConfig{Nodes: nodes, OutDegree: 2, Seed: 11})
		src := eval.MapSource{"edge": g}
		var res *multiset.Relation
		t := timeIt(func() { res = evalMust(algebra.NewTClose(algebra.NewRel("edge")), src) })
		fmt.Printf("%d\t%d\t%d\t%v\n", nodes, g.Cardinality(), res.Cardinality(), t)
	}
}

// benchResult is one benchmark series entry of a BENCH_<label>.json file.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchFile is the schema of a BENCH_<label>.json baseline.
type benchFile struct {
	Label      string        `json:"label"`
	Source     string        `json:"source"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// compareBaseline checks a fresh benchmark series against a committed
// baseline file: any benchmark whose ns/op exceeds maxRatio times its
// baseline value counts as a regression.  Benchmarks absent from the
// baseline are ignored, so the set can grow without breaking CI.
func compareBaseline(fresh benchFile, baselinePath string, maxRatio float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("compare: %w", err)
	}
	var baseline benchFile
	if err := json.Unmarshal(data, &baseline); err != nil {
		return fmt.Errorf("compare: %s: %w", baselinePath, err)
	}
	base := make(map[string]benchResult, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		base[b.Name] = b
	}
	var regressions []string
	for _, b := range fresh.Benchmarks {
		ref, ok := base[b.Name]
		if !ok || ref.NsPerOp <= 0 {
			continue
		}
		ratio := b.NsPerOp / ref.NsPerOp
		fmt.Fprintf(os.Stderr, "compare %s: %.2fx baseline (%.0f vs %.0f ns/op)\n", b.Name, ratio, b.NsPerOp, ref.NsPerOp)
		if ratio > maxRatio {
			regressions = append(regressions, fmt.Sprintf("%s: %.2fx > %.2fx", b.Name, ratio, maxRatio))
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("compare: ns/op regression versus %s:\n  %s", baselinePath, strings.Join(regressions, "\n  "))
	}
	fmt.Fprintf(os.Stderr, "compare: all benchmarks within %.1fx of %s\n", maxRatio, baselinePath)
	return nil
}

// parallelWorkers is the gang width of the parallel benchmark variants: the
// `.../parallel-wN` series entries, measured alongside the main (serial
// unless -workers says otherwise) series.
const parallelWorkers = 4

// writeBenchJSON runs a benchmark series set through testing.Benchmark and
// writes it as BENCH_<label>.json, the machine-readable baseline future
// performance PRs are compared against.  The 'main' set covers the E1/E2
// operator shapes, the E11 skewed-scheduler and parallel-build joins and the
// E12 aggregate workloads; it runs at the -workers count (default serial), and
// shapes the planner can parallelise are additionally measured as
// `/parallel-w4` variants.  The 'joins' set measures the E13 multi-join shapes
// serially through the cost-based join-order enumerator (`/reorder`) over
// ANALYZE-grade statistics — the series the ci-join gate pins.  It returns the
// series it measured so callers can compare it against a committed baseline.
func writeBenchJSON(label, set string) (benchFile, error) {
	if set != "main" && set != "joins" && set != "all" {
		return benchFile{}, fmt.Errorf("unknown -set %q (want main, joins or all)", set)
	}
	evalLoopW := func(expr algebra.Expr, src eval.Source, w int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := eval.Engine{Planner: plan.Planner{Workers: w, MorselSize: morselSize}}
				if _, err := e.Eval(expr, src); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	evalLoop := func(expr algebra.Expr, src eval.Source) func(b *testing.B) {
		return evalLoopW(expr, src, workers)
	}

	var cases []struct {
		name string
		fn   func(b *testing.B)
	}
	add := func(name string, fn func(b *testing.B)) {
		cases = append(cases, struct {
			name string
			fn   func(b *testing.B)
		}{name, fn})
	}
	if set == "main" || set == "all" {
		mainSeries(add, evalLoop, evalLoopW)
	}
	if set == "joins" || set == "all" {
		joinSeries(add, evalLoopW)
	}

	out := benchFile{
		Label:     label,
		Source:    "mrabench -json",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	for _, c := range cases {
		r := testing.Benchmark(c.fn)
		if r.N == 0 {
			// b.Fatal inside the closure aborts the benchmark goroutine and
			// testing.Benchmark returns a zero result; surface the case name
			// instead of letting NaN ns/op poison the JSON.
			return benchFile{}, fmt.Errorf("benchmark %s failed (evaluation error); baseline not written", c.name)
		}
		out.Benchmarks = append(out.Benchmarks, benchResult{
			Name:        c.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
		fmt.Fprintf(os.Stderr, "%s\t%d iters\t%.0f ns/op\t%d B/op\t%d allocs/op\n",
			c.name, r.N, float64(r.T.Nanoseconds())/float64(r.N), r.AllocedBytesPerOp(), r.AllocsPerOp())
	}

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return benchFile{}, err
	}
	name := fmt.Sprintf("BENCH_%s.json", label)
	if err := os.WriteFile(name, append(data, '\n'), 0o644); err != nil {
		return benchFile{}, err
	}
	fmt.Printf("wrote %s\n", name)
	return out, nil
}

// addFunc and loopWFunc are the case adder and the per-worker-count loop
// builder shared by the series builders.
type addFunc = func(name string, fn func(b *testing.B))
type loopWFunc = func(expr algebra.Expr, src eval.Source, workers int) func(b *testing.B)

// mainSeries registers the 'main' benchmark set: E1/E2 operator shapes, the
// E11 skewed-scheduler and parallel-build workloads, and the E12 aggregate
// workloads.
func mainSeries(add addFunc,
	evalLoop func(algebra.Expr, eval.Source) func(b *testing.B),
	evalLoopW loopWFunc) {
	// addParallel measures the same shape serially and as a parallel variant.
	addParallel := func(name string, expr algebra.Expr, src eval.Source) {
		add(name, evalLoop(expr, src))
		add(fmt.Sprintf("%s/parallel-w%d", name, parallelWorkers), evalLoopW(expr, src, parallelWorkers))
	}

	// E1 — Theorem 3.1: native operators vs their derived forms.
	for _, n := range []int{500, 2000} {
		left := workload.Duplicated(workload.DuplicationConfig{DistinctTuples: n, DuplicationFactor: 2, Seed: 1})
		right := workload.Duplicated(workload.DuplicationConfig{DistinctTuples: n, DuplicationFactor: 3, Seed: 2})
		isrc := eval.MapSource{"a": left, "b": right}
		a, c := algebra.NewRel("a"), algebra.NewRel("b")
		add(fmt.Sprintf("E1_IntersectNativeVsDerived/native/n=%d", n),
			evalLoop(algebra.NewIntersect(a, c), isrc))
		add(fmt.Sprintf("E1_IntersectNativeVsDerived/derived/n=%d", n),
			evalLoop(algebra.NewDifference(a, algebra.NewDifference(a, c)), isrc))

		fact, dim := workload.JoinPair(workload.JoinConfig{LeftTuples: n, RightTuples: n / 10, Seed: 3})
		jsrc := eval.MapSource{"fact": fact, "dim": dim}
		cond := scalar.Eq(0, 2)
		join := algebra.NewJoin(cond, algebra.NewRel("fact"), algebra.NewRel("dim"))
		sigma := algebra.NewSelect(cond, algebra.NewProduct(algebra.NewRel("fact"), algebra.NewRel("dim")))
		if n >= 2000 {
			// Only the large join clears the planner's parallel threshold; the
			// small one would plan serial and measure the same thing twice.
			addParallel(fmt.Sprintf("E1_JoinNativeVsSigmaProduct/native/n=%d", n), join, jsrc)
			addParallel(fmt.Sprintf("E1_JoinNativeVsSigmaProduct/derived/n=%d", n), sigma, jsrc)
		} else {
			add(fmt.Sprintf("E1_JoinNativeVsSigmaProduct/native/n=%d", n), evalLoop(join, jsrc))
			add(fmt.Sprintf("E1_JoinNativeVsSigmaProduct/derived/n=%d", n), evalLoop(sigma, jsrc))
		}
	}

	// E2 — Theorem 3.2: distribution of σ and π over ⊎.  Workloads use the
	// same seeds as the corresponding root bench_test.go benchmarks (4/5 for
	// the selection pair, 6/7 for the projection pair) so the JSON series is
	// directly comparable to `go test -bench E2`.
	e1r, e2r := algebra.NewRel("e1"), algebra.NewRel("e2")
	ssrc := eval.MapSource{
		"e1": workload.Duplicated(workload.DuplicationConfig{DistinctTuples: 5000, DuplicationFactor: 2, Seed: 4}),
		"e2": workload.Duplicated(workload.DuplicationConfig{DistinctTuples: 5000, DuplicationFactor: 2, Seed: 5}),
	}
	pred := scalar.NewCompare(value.CmpLt, scalar.NewAttr(1), scalar.NewConst(value.NewInt(1<<15)))
	addParallel("E2_SelectionPushdownOverUnion/sigma-over-union",
		algebra.NewSelect(pred, algebra.NewUnion(e1r, e2r)), ssrc)
	addParallel("E2_SelectionPushdownOverUnion/union-of-sigmas",
		algebra.NewUnion(algebra.NewSelect(pred, e1r), algebra.NewSelect(pred, e2r)), ssrc)
	psrc := eval.MapSource{
		"e1": workload.Duplicated(workload.DuplicationConfig{DistinctTuples: 5000, DuplicationFactor: 2, Seed: 6}),
		"e2": workload.Duplicated(workload.DuplicationConfig{DistinctTuples: 5000, DuplicationFactor: 2, Seed: 7}),
	}
	addParallel("E2_ProjectionPushdownOverUnion/pi-over-union",
		algebra.NewProject([]int{0}, algebra.NewUnion(e1r, e2r)), psrc)
	addParallel("E2_ProjectionPushdownOverUnion/union-of-pis",
		algebra.NewUnion(algebra.NewProject([]int{0}, e1r), algebra.NewProject([]int{0}, e2r)), psrc)

	// E11 — skewed-key workloads: Zipf-distributed fact keys concentrate the
	// filter and probe work on a few hot keys; the morsel scheduler visits
	// every entry once across the gang and rebalances hot ranges dynamically.
	skFact, skDim := workload.JoinPair(workload.JoinConfig{
		LeftTuples: 20000, RightTuples: 100, KeyRange: 100, Skew: 1.4, Seed: 11})
	sksrc := eval.MapSource{"fact": skFact, "dim": skDim}
	skPred := scalar.NewCompare(value.CmpGe, scalar.NewAttr(1), scalar.NewConst(value.NewInt(1<<14)))
	addParallel("E11_SkewedScanPipeline/sigma-pi-zipf",
		algebra.NewProject([]int{0}, algebra.NewSelect(skPred, algebra.NewRel("fact"))), sksrc)
	addParallel("E11_SkewedJoin/zipf-probe",
		algebra.NewJoin(scalar.Eq(0, 2), algebra.NewRel("fact"), algebra.NewRel("dim")), sksrc)

	// E12 — aggregate workloads for the decomposable two-phase subsystem:
	// grouped aggregation at low and high group cardinality, Zipf-skewed
	// group keys, multi-aggregate grouping, and global aggregates (parallel
	// only via partial-state merging).
	loAgg, _ := workload.JoinPair(workload.JoinConfig{LeftTuples: 20000, RightTuples: 16, KeyRange: 16, Seed: 20})
	hiAgg, _ := workload.JoinPair(workload.JoinConfig{LeftTuples: 20000, RightTuples: 100, KeyRange: 10000, Seed: 21})
	zipfAgg, _ := workload.JoinPair(workload.JoinConfig{LeftTuples: 20000, RightTuples: 100, KeyRange: 100, Skew: 1.4, Seed: 22})
	// ANALYZE-grade statistics let the planner read the true grouping-key NDV:
	// the high-card workload plans one-phase at workers=4 (per-worker partial
	// tables would approach the input size), the others two-phase.
	asrc := eval.AnalyzeSource(eval.MapSource{"lo": loAgg, "hi": hiAgg, "zipf": zipfAgg})
	addParallel("E12_GroupedAgg/low-card-sum",
		algebra.NewGroupBy([]int{0}, algebra.AggSum, 1, algebra.NewRel("lo")), asrc)
	addParallel("E12_GroupedAgg/high-card-sum",
		algebra.NewGroupBy([]int{0}, algebra.AggSum, 1, algebra.NewRel("hi")), asrc)
	addParallel("E12_GroupedAgg/zipf-sum",
		algebra.NewGroupBy([]int{0}, algebra.AggSum, 1, algebra.NewRel("zipf")), asrc)
	addParallel("E12_MultiAgg/zipf-cnt-sum-max",
		algebra.NewGroupByMulti([]int{0}, []algebra.AggSpec{
			{Fn: algebra.AggCount, Col: 0}, {Fn: algebra.AggSum, Col: 1}, {Fn: algebra.AggMax, Col: 1},
		}, algebra.NewRel("zipf")), asrc)
	addParallel("E12_GlobalAgg/zipf-cnt-sum-min",
		algebra.NewGroupByMulti(nil, []algebra.AggSpec{
			{Fn: algebra.AggCount, Col: 0}, {Fn: algebra.AggSum, Col: 1}, {Fn: algebra.AggMin, Col: 1},
		}, algebra.NewRel("zipf")), asrc)

	// E11 — morsel-parallel hash build: a join whose build side is large
	// enough (8000 rows ≥ 4× the 1024-row exchange threshold) that the
	// parallel planner builds the shared table with a worker gang.
	bFact, bDim := workload.JoinPair(workload.JoinConfig{
		LeftTuples: 20000, RightTuples: 8000, KeyRange: 8000, Seed: 12})
	bsrc := eval.MapSource{"bfact": bFact, "bdim": bDim}
	addParallel("E11_ParallelBuildJoin/big-build",
		algebra.NewJoin(scalar.Eq(0, 2), algebra.NewRel("bfact"), algebra.NewRel("bdim")), bsrc)
}

// joinSeries registers the 'joins' benchmark set: the E13 multi-join shapes —
// a star written dimensions-first, a chain written big-relation-first, and a
// triangle cycle — each measured serially through the cost-based join-order
// enumerator (`/reorder`).  Every source carries ANALYZE-grade statistics so
// the enumerator's cardinality estimates come from the sketches and
// histograms, and the engines run serial so the series is free of
// gang-scheduling noise and stable enough for the ci-join gate.
func joinSeries(add addFunc, evalLoopW loopWFunc) {
	addJoinOrder := func(name string, expr algebra.Expr, src eval.Source) {
		add(name+"/reorder", evalLoopW(expr, src, 1))
	}

	// Star, written worst-first: the three 60-row dimensions are
	// cross-multiplied (216000 rows) before the 20000-row fact table joins.
	// The enumerator starts from the fact table instead and keeps every
	// intermediate at fact size.
	starFact, starDims := workload.Star(workload.StarConfig{Seed: 13})
	starSrc := eval.MapSource{"fact": starFact}
	for i, d := range starDims {
		starSrc[fmt.Sprintf("d%d", i+1)] = d
	}
	starWritten := algebra.NewJoin(
		scalar.NewAnd(scalar.Eq(0, 6), scalar.NewAnd(scalar.Eq(2, 7), scalar.Eq(4, 8))),
		algebra.NewProduct(algebra.NewProduct(algebra.NewRel("d1"), algebra.NewRel("d2")), algebra.NewRel("d3")),
		algebra.NewRel("fact"))
	addJoinOrder("E13_MultiJoin/star", starWritten, eval.AnalyzeSource(starSrc))

	// Chain, written big-first: the head joins its fan-out link first
	// (100000-row intermediate) before the selective tail links prune the
	// stream; the enumerator joins the tiny selective tail (8/200 rows) first
	// and touches the 20000-row head in a single final probe.
	chainRels := workload.Chain(workload.ChainConfig{Seed: 14})
	chainSrc := eval.MapSource{"head": chainRels[0]}
	for i, r := range chainRels[1:] {
		chainSrc[fmt.Sprintf("link%d", i+1)] = r
	}
	chainWritten := algebra.Expr(algebra.NewRel("head"))
	for k := 1; k < len(chainRels); k++ {
		chainWritten = algebra.NewJoin(scalar.Eq(2*k-1, 2*k), chainWritten, algebra.NewRel(fmt.Sprintf("link%d", k)))
	}
	addJoinOrder("E13_MultiJoin/chain", chainWritten, eval.AnalyzeSource(chainSrc))

	// Cycle: the triangle query over a random edge relation, written as a
	// three-edge chain with the closing predicate as a selection on top — the
	// shape the planner's flattener folds into the DP search as an extra join
	// conjunct.  The cycle is symmetric, so this mainly pins the enumerator's
	// overhead on a query it cannot improve.
	edges := workload.Graph(workload.GraphConfig{Nodes: 500, OutDegree: 4, Seed: 15})
	cycleSrc := eval.MapSource{"edge": edges}
	cycle := algebra.NewSelect(scalar.Eq(5, 0),
		algebra.NewJoin(scalar.Eq(3, 4),
			algebra.NewJoin(scalar.Eq(1, 2), algebra.NewRel("edge"), algebra.NewRel("edge")),
			algebra.NewRel("edge")))
	addJoinOrder("E13_MultiJoin/cycle-triangle", cycle, eval.AnalyzeSource(cycleSrc))
}
