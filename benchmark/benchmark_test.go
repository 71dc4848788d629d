package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"mra"
	"mra/internal/testleak"
)

// streamBytes renders the first n ops of a served stream.
func streamBytes(weights []kindWeight, seed int64, n int) string {
	s := newOpStream(weights, seed)
	var b strings.Builder
	for i := 0; i < n; i++ {
		o := s.next()
		fmt.Fprintf(&b, "%s\t%s\n", o.Kind, strings.Join(o.Lines, " "))
	}
	return b.String()
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, deck := range [][]kindWeight{bankMixDeck, bankReadDeck} {
		a, b, c := streamBytes(deck, 7, 500), streamBytes(deck, 7, 500), streamBytes(deck, 8, 500)
		if a != b {
			t.Errorf("same seed, different op streams")
		}
		if a == c {
			t.Errorf("different seeds, same op stream")
		}
	}
	for name, gen := range map[string]func(int64) []relation{"bank": bankData, "olap": olapData} {
		if !reflect.DeepEqual(gen(3), gen(3)) {
			t.Errorf("%s: same seed, different data", name)
		}
		if reflect.DeepEqual(gen(3), gen(4)) {
			t.Errorf("%s: different seeds, same data", name)
		}
	}
}

// The decks deal every kind in its exact share over any whole number of
// decks, whatever the seed.
func TestDeckSharesAreExact(t *testing.T) {
	s := newOpStream(bankMixDeck, 5)
	got := map[string]int{}
	for i := 0; i < 10*deckSize; i++ {
		got[s.next().Kind]++
	}
	want := map[string]int{"analytics": 100, "transfer": 70, "hotspot": 30}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("kinds over ten decks = %v, want %v", got, want)
	}
}

func TestPercentileArithmetic(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for p, want := range map[float64]float64{0: 1, 50: 5.5, 95: 9.55, 100: 10} {
		if got := percentile(xs, p); math.Abs(got-want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := relSpread(xs); got != 1 {
		t.Errorf("relSpread = %v, want 1", got)
	}
	// statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
	if q1, q2, q3 := quartiles([]float64{5, 3}); q1 != 2.5 || q2 != 4 || q3 != 5.5 {
		t.Errorf("quartiles of two = %v %v %v, want 2.5 4 5.5", q1, q2, q3)
	}
	if percentile(nil, 50) != 0 {
		t.Errorf("percentile of nothing should be 0")
	}
	// Three reads with a median of 100 µs and one write of 1600 µs:
	// 100^(3/4) · 1600^(1/4) = 200.
	mix := []sample{
		{kind: "analytics", latency: 90 * time.Microsecond}, {kind: "analytics", latency: 100 * time.Microsecond},
		{kind: "analytics", latency: 500 * time.Microsecond}, {kind: "transfer", latency: 1600 * time.Microsecond},
	}
	if got := mixP50(mix); math.Abs(got-200) > 1e-9 || mixP50(nil) != 0 {
		t.Errorf("mixP50 = %v, want 200 (and 0 of nothing)", got)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{Name: "op", Kind: "k", Op: 1, ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", Op: 1, ID: 1, Parent: 0, Start: 10, End: 60},
		{Name: "b", Op: 1, ID: 2, Parent: 1, Start: 20, End: 30},
		{Name: "a", Op: 1, ID: 3, Parent: 1, Start: 30, End: 35}, // same stage nested in itself
		{Name: "multiset.diff", Op: 1, ID: 4, Parent: 0, Start: 60, End: 80, Probe: true},
		{Name: "txn.commit", Op: 1, ID: 5, Parent: 0, Start: 80, End: 95},
	}
	ops := selfTimes(spans)
	if len(ops) != 1 {
		t.Fatalf("got %d ops, want 1", len(ops))
	}
	o := ops[0]
	want := map[string]int64{"op": 15, "a": 35 + 5, "b": 10, "txn.commit": 15}
	if !reflect.DeepEqual(o.Self, want) {
		t.Errorf("self times = %v, want %v", o.Self, want)
	}
	if o.Kind != "k" || o.Dur != 80 || o.Probe["multiset.diff"] != 20 {
		t.Errorf("kind %q dur %d probe %v, want k 80 20", o.Kind, o.Dur, o.Probe)
	}
	if got := coverage(ops); math.Abs(got-65.0/80) > 1e-9 {
		t.Errorf("coverage = %v, want %v", got, 65.0/80)
	}
	if d, ok := o.stageTime("storage.install"); !ok || d != 0 {
		t.Errorf("storage.install = %d %v, want 0 (commit 15 − diff 20, clamped)", d, ok)
	}
	if s := summariseStage(ops, "a"); s.N != 1 || s.P50us != 0.04 || s.Share != 0.5 {
		t.Errorf("stage a = %+v, want p50 0.04 µs, share 0.5, n 1", s)
	}
	// The no-op tracer records nothing and hands out no ids.
	off := newTracer(false)
	off.end(off.begin("x"))
	off.end(off.beginOp("k"))
	if len(off.spans) != 0 {
		t.Errorf("no-op tracer recorded %d spans", len(off.spans))
	}
}

// sortedRows renders a result bag in a canonical order.
func sortedRows(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r...)
	}
	sort.Strings(out)
	return out
}

// The staged pipeline must compute what the engine computes: the same result
// bags and the same final database state as mra.Tx.ExecSQLScript on a 200-op
// slice of the write workload.
func TestStagedFidelityServed(t *testing.T) {
	s := findSpec("bank_mix")
	staged, err := openDB(context.Background(), s, 11)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := openDB(context.Background(), s, 11)
	if err != nil {
		t.Fatal(err)
	}
	var cnt counters
	session := newStagedSession(context.Background(), staged.db, newTracer(true), &cnt)
	stream := newOpStream(s.Deck, clientSeed(11, 0))
	for i := 0; i < 200; i++ {
		o := stream.next()
		resps, err := session.runOp(o)
		if err != nil {
			t.Fatalf("op %d staged: %v", i, err)
		}
		tx := direct.db.BeginTx(mra.TxOptions{})
		var want [][]any
		for _, line := range o.Lines {
			results, err := tx.ExecSQLScript(line)
			if err != nil {
				t.Fatalf("op %d direct: %v", i, err)
			}
			for _, r := range results {
				want = append(want, r.Rows()...)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("op %d direct commit: %v", i, err)
		}
		var got [][]any
		for _, r := range resps {
			for _, rs := range r.Results {
				got = append(got, rs.Rows...)
			}
		}
		if !reflect.DeepEqual(sortedRows(got), sortedRows(want)) {
			t.Fatalf("op %d (%s): staged returned %v, engine %v", i, o.Kind, got, want)
		}
	}
	all := func(db *mra.DB) []string {
		res, err := db.QuerySQL("select * from account")
		if err != nil {
			t.Fatal(err)
		}
		return sortedRows(res.Rows())
	}
	if !reflect.DeepEqual(all(staged.db), all(direct.db)) {
		t.Errorf("final database states differ")
	}
	if cnt.DiffChangedRows == 0 || cnt.DiffBaseRows == 0 {
		t.Errorf("Diff probe saw nothing: %+v", cnt)
	}
	if err := staged.checkBank(); err != nil {
		t.Error(err)
	}
}

func TestStagedFidelityOLAP(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the olap data")
	}
	e, err := openDB(context.Background(), findSpec("olap_serial"), 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		var cnt counters
		lib := newStagedOLAP(context.Background(), e.db, newTracer(true), &cnt, workers)
		e.db.SetWorkers(workers)
		for _, q := range olapQueries {
			got, err := lib.runOp(q)
			if err != nil {
				t.Fatalf("%s staged: %v", q.Kind, err)
			}
			want, err := libraryQuery(context.Background(), e.db, q)
			if err != nil {
				t.Fatalf("%s direct: %v", q.Kind, err)
			}
			if bagChecksum(got) != bagChecksum(want) {
				t.Errorf("%s at %d workers: staged %+v, engine %+v", q.Kind, workers, bagChecksum(got), bagChecksum(want))
			}
		}
	}
}

// smokeConfig is a short run of a workload.
func smokeConfig(name string, traced bool) config {
	s := findSpec(name)
	staged := 100
	if !s.served() {
		staged = len(olapQueries)
	}
	return config{Spec: s, Seed: 5, Window: 300 * time.Millisecond, Warmup: 50 * time.Millisecond,
		Trace: traced, StagedOps: staged}
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []listedMetric `json:"end_to_end"`
	PerLayer []listedMetric `json:"per_layer"`
}

type listedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

// BENCHMARK.json states what the code does: the command, the run length, the
// workloads with their reasons, and the bounds --repeat judges by.
func TestBenchmarkFileMatchesTheCode(t *testing.T) {
	f := readBenchmarkFile(t)
	if !reflect.DeepEqual(f.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(f.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", f.Command, f.Paths)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the default window is %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Workloads) != len(specs) {
		t.Fatalf("%d workloads listed, %d exist", len(f.Workloads), len(specs))
	}
	for i, w := range f.Workloads {
		if w.Name != specs[i].Name || w.Why != specs[i].Why {
			t.Errorf("workload %d: listed %q (%s), code has %q (%s)", i, w.Name, w.Why, specs[i].Name, specs[i].Why)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, %d bounded in the code", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Bound != endToEnd[i].Bound {
			t.Errorf("end-to-end metric %d: listed %s ≤ %v, code has %s ≤ %v", i, m.Name, m.Bound, endToEnd[i].Name, endToEnd[i].Bound)
		}
	}
}

// Every workload runs, is correct, fails no op, and reports exactly the
// metrics BENCHMARK.json lists for the mode, by name and unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	f := readBenchmarkFile(t)
	for _, s := range specs {
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(context.Background(), smokeConfig(s.Name, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.Name, traced, err)
			}
			if !rep.correct() || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d, problems %v", s.Name, traced, rep.Attempted, rep.Failed, rep.Problems)
			}
			listed := f.EndToEnd
			if traced {
				listed = f.PerLayer
			}
			if len(rep.Metrics) != len(listed) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", s.Name, traced, len(rep.Metrics), len(listed))
				continue
			}
			for i, l := range listed {
				m := rep.Metrics[i]
				if m.Name != l.Name || m.Unit != l.Unit {
					t.Errorf("%s: metric %d is %s [%s], BENCHMARK.json lists %s [%s]", s.Name, i, m.Name, m.Unit, l.Name, l.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", s.Name, m.Name, m.Value)
				}
				if m.Name == "trace.coverage_frac" && m.Value < 0.9 {
					t.Errorf("%s: coverage %v", s.Name, m.Value)
				}
			}
			if traced && rep.Table == "" {
				t.Errorf("%s: no where-the-time-goes table", s.Name)
			}
		}
	}
}

// A run leaves nothing behind: no goroutine, and no listener on the port the
// server had.
func TestLeavesNothingRunning(t *testing.T) {
	if testing.Short() {
		t.Skip("runs bank_mix for a second")
	}
	defer testleak.Check(t)()
	cfg := smokeConfig("bank_mix", false)
	cfg.Window = time.Second
	e, err := setup(context.Background(), cfg.Spec, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	addr := e.addr
	loop, err := closedLoop(context.Background(), cfg, e)
	if err != nil {
		t.Fatal(err)
	}
	if len(loop.samples) == 0 {
		t.Errorf("no op completed")
	}
	if err := e.close(); err != nil {
		t.Fatal(err)
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Errorf("something still listens on %s after close", addr)
	}
}

// The watchdog and SIGTERM both end the command early, with the stopped exit
// code, no further result, and nothing left running.
func TestStopsCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("starts several runs")
	}
	// Catch SIGTERM for the whole test, so that it cannot kill the test binary
	// should run return before the signal arrives.  The first signal.Notify of
	// a process also starts os/signal's own loop goroutine, which never ends;
	// that happens here, before the baseline is taken.
	guard := make(chan os.Signal, 1)
	signal.Notify(guard, syscall.SIGTERM)
	defer signal.Stop(guard)
	defer testleak.Check(t)()

	// --max-s bounds the command, not each run: three sets of 0.3 s each fit
	// one by one but not together.
	defer func(d time.Duration) { warmup = d }(warmup)
	warmup = 50 * time.Millisecond
	var out bytes.Buffer
	code := run([]string{"--workload", "bank_read", "--repeat", "3", "--seconds", "0.2", "--max-s", "0.5"}, &out, io.Discard)
	if code != exitStopped || !strings.Contains(out.String(), "set 1/3 bank_read done") || strings.Contains(out.String(), "set 3/3") {
		t.Errorf("watchdog: exit %d, output %q", code, out.String())
	}

	out.Reset()
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		time.Sleep(400 * time.Millisecond)
		syscall.Kill(os.Getpid(), syscall.SIGTERM)
	}()
	start := time.Now()
	code = run([]string{"--workload", "bank_read", "--trace", "0", "--seconds", "30"}, &out, io.Discard)
	if code != exitStopped || strings.Contains(out.String(), `"correct"`) || time.Since(start) > 5*time.Second {
		t.Errorf("SIGTERM: exit %d after %v, output %q", code, time.Since(start), out.String())
	}
	<-sent
}

// A golden that does not match the engine's results fails the command.
func TestCorruptedGoldenFails(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the olap data")
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	saved := goldenJSON
	defer func() { goldenJSON = saved }()
	bad := g.Queries["q_group"]
	bad.Rows++
	g.Queries["q_group"] = bad
	goldenJSON, _ = json.Marshal(g)
	var out bytes.Buffer
	code := run([]string{"--workload", "olap_serial", "--trace", "0", "--seconds", "0.3", "--seed", fmt.Sprint(g.Seed)}, &out, io.Discard)
	if code != exitIncorrect || strings.Contains(out.String(), `"correct":true`) {
		t.Errorf("corrupted golden: exit %d, output %q", code, out.String())
	}
}

// The harness must not lean on the A/B switches a later change will delete.
func TestNoLegacyKnobs(t *testing.T) {
	knobs := []string{"Static" + "Slices", "Row" + "Batches", "Serial" + "Batches", "OnePhase" + "Agg", "NoJoin" + "Reorder", "BuildParallel" + "Threshold"}
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no sources found: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range knobs {
			if bytes.Contains(src, []byte(k)) {
				t.Errorf("%s mentions the legacy knob %s", f, k)
			}
		}
	}
}
