package plan

import (
	"fmt"
	"testing"

	"mra/internal/algebra"
	"mra/internal/multiset"
	"mra/internal/scalar"
	"mra/internal/schema"
	"mra/internal/tuple"
	"mra/internal/value"
)

// The layer's own micro-benchmarks: serial plans (one worker, the default
// batch size) over the operator shapes the served and library workloads
// spend their execute time in.  PointSelect is the plan behind a bank
// transfer's and a point read's `where id = K`; FilterProject, GroupedAggregate,
// HashJoinProbe and Unique are the streaming, aggregating, probing and
// de-duplicating loops of the analytic queries.  ProjectCollect,
// ProjectUnique and StarProbe are the hashing sinks and the join output of
// q_setops and q_star: columnar rows that collapse into few distinct tuples,
// and a probe whose matches feed a second probe.  SetOps is q_setops itself:
// δ, ∸ and ∩, each building one operand into a counted table that the other
// streams past.  Each benchmark plans once and executes b.N times, so it
// measures execution only.

// benchAccounts returns account(id, owner, balance) with n rows.
func benchAccounts(n int) *multiset.Relation {
	r := multiset.NewWithCapacity(schema.NewRelation("account",
		schema.Attribute{Name: "id", Type: value.KindInt},
		schema.Attribute{Name: "owner", Type: value.KindString},
		schema.Attribute{Name: "balance", Type: value.KindFloat}), n)
	for i := 0; i < n; i++ {
		r.Add(tuple.New(value.NewInt(int64(i)), value.NewString(fmt.Sprintf("owner-%d", i%97)),
			value.NewFloat(float64(i%1000))), 1)
	}
	return r
}

// benchFacts returns fact(key, grp, payload) with n rows over 60 keys and 12
// groups, and dim(key, attr) with one row per key.
func benchFacts(n int) (fact, dim *multiset.Relation) {
	fact = multiset.NewWithCapacity(schema.NewRelation("fact",
		schema.Attribute{Name: "key", Type: value.KindInt},
		schema.Attribute{Name: "grp", Type: value.KindInt},
		schema.Attribute{Name: "payload", Type: value.KindInt}), n)
	for i := 0; i < n; i++ {
		fact.Add(tuple.Ints(int64(i%60), int64(i%12), int64(i)), 1)
	}
	dim = multiset.New(schema.NewRelation("dim",
		schema.Attribute{Name: "key", Type: value.KindInt},
		schema.Attribute{Name: "attr", Type: value.KindInt}))
	for k := 0; k < 60; k++ {
		dim.Add(tuple.Ints(int64(k), int64(k*100)), 1)
	}
	return fact, dim
}

// benchPairs returns pair(a, b, payload) with n rows: a = i mod 60 and
// b = (i div 60) mod 60, so (a, b) takes 3 600 distinct values.
func benchPairs(n int) *multiset.Relation {
	r := multiset.NewWithCapacity(schema.NewRelation("pair",
		schema.Attribute{Name: "a", Type: value.KindInt},
		schema.Attribute{Name: "b", Type: value.KindInt},
		schema.Attribute{Name: "payload", Type: value.KindInt}), n)
	for i := 0; i < n; i++ {
		r.Add(tuple.Ints(int64(i%60), int64((i/60)%60), int64(i)), 1)
	}
	return r
}

// benchPlan compiles e serially over src and executes it b.N times, checking
// the result's cardinality once.
func benchPlan(b *testing.B, e algebra.Expr, src mapSource, want uint64) {
	b.Helper()
	p := mustPlan(b, e, src)
	out, err := p.Execute(src)
	if err != nil {
		b.Fatal(err)
	}
	if got := out.Cardinality(); got != want {
		b.Fatalf("%s: cardinality %d, want %d", e, got, want)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Execute(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPointSelect is π[owner, balance](σ[id = K](account)) over 4096 rows.
func BenchmarkPointSelect(b *testing.B) {
	src := mapSource{"account": benchAccounts(4096)}
	e := algebra.NewProject([]int{1, 2}, algebra.NewSelect(
		scalar.NewCompare(value.CmpEq, scalar.NewAttr(0), scalar.NewConst(value.NewInt(2024))),
		algebra.NewRel("account")))
	benchPlan(b, e, src, 1)
}

// BenchmarkFilterProject is π[id, balance](σ[balance >= 500](account)) over
// 60 000 rows, keeping half of them.
func BenchmarkFilterProject(b *testing.B) {
	src := mapSource{"account": benchAccounts(60000)}
	e := algebra.NewProject([]int{0, 2}, algebra.NewSelect(
		scalar.NewCompare(value.CmpGe, scalar.NewAttr(2), scalar.NewConst(value.NewFloat(500))),
		algebra.NewRel("account")))
	benchPlan(b, e, src, 30000)
}

// BenchmarkGroupedAggregate is Γ[(grp) SUM(payload)](π[grp, payload](fact))
// over 60 000 rows into 12 groups: the aggregate update over a columnar input.
func BenchmarkGroupedAggregate(b *testing.B) {
	fact, _ := benchFacts(60000)
	src := mapSource{"fact": fact}
	e := algebra.NewGroupBy([]int{0}, algebra.AggSum, 1,
		algebra.NewProject([]int{1, 2}, algebra.NewRel("fact")))
	benchPlan(b, e, src, 12)
}

// BenchmarkHashJoinProbe is fact ⋈[key = key] dim: 60 000 probe rows against a
// 60-row build side.
func BenchmarkHashJoinProbe(b *testing.B) {
	fact, dim := benchFacts(60000)
	src := mapSource{"fact": fact, "dim": dim}
	e := algebra.NewJoin(scalar.Eq(0, 3), algebra.NewRel("fact"), algebra.NewRel("dim"))
	benchPlan(b, e, src, 60000)
}

// BenchmarkUnique is δ(π[key](fact)): 60 000 rows collapsing to 60 tuples.
func BenchmarkUnique(b *testing.B) {
	fact, _ := benchFacts(60000)
	src := mapSource{"fact": fact}
	e := algebra.NewUnique(algebra.NewProject([]int{0}, algebra.NewRel("fact")))
	benchPlan(b, e, src, 60)
}

// BenchmarkSetOps is q_setops's expression,
// intersect(unique(project[%1, %2](fact)), diff(project[%1, %2](fact),
// project[%2, %3](fact))), over 60 000 fact rows: the 60 distinct (key, grp)
// pairs, each kept once.
func BenchmarkSetOps(b *testing.B) {
	fact, _ := benchFacts(60000)
	src := mapSource{"fact": fact}
	pairs := func(cols ...int) algebra.Expr { return algebra.NewProject(cols, algebra.NewRel("fact")) }
	e := algebra.NewIntersect(algebra.NewUnique(pairs(0, 1)),
		algebra.NewDifference(pairs(0, 1), pairs(1, 2)))
	benchPlan(b, e, src, 60)
}

// BenchmarkProjectCollect is π[a, b](pair): 60 000 columnar rows collected
// into a relation of 3 600 distinct tuples.
func BenchmarkProjectCollect(b *testing.B) {
	src := mapSource{"pair": benchPairs(60000)}
	e := algebra.NewProject([]int{0, 1}, algebra.NewRel("pair"))
	benchPlan(b, e, src, 60000)
}

// BenchmarkProjectUnique is δ(π[a, b](pair)): 60 000 columnar rows collapsing
// to 3 600 tuples.
func BenchmarkProjectUnique(b *testing.B) {
	src := mapSource{"pair": benchPairs(60000)}
	e := algebra.NewUnique(algebra.NewProject([]int{0, 1}, algebra.NewRel("pair")))
	benchPlan(b, e, src, 3600)
}

// BenchmarkStarProbe is Γ[(%7) SUM(%3)]((fact ⋈[key = key] dim) ⋈[grp = key]
// dim), the shape of q_star: 60 000 probe rows through two 60-row builds, the
// second probing the first's output, into 12 groups.
func BenchmarkStarProbe(b *testing.B) {
	fact, dim := benchFacts(60000)
	src := mapSource{"fact": fact, "dim": dim}
	e := algebra.NewGroupBy([]int{6}, algebra.AggSum, 2,
		algebra.NewJoin(scalar.Eq(1, 5),
			algebra.NewJoin(scalar.Eq(0, 3), algebra.NewRel("fact"), algebra.NewRel("dim")),
			algebra.NewRel("dim")))
	benchPlan(b, e, src, 12)
}

// BenchmarkFilterFloatConst is σ[balance > 990](account) over 60 000 rows,
// keeping 1 % of them: an integer literal against a float column, the
// comparison of the served analytics statement, with the sink kept small so
// the filter kernel dominates.
func BenchmarkFilterFloatConst(b *testing.B) {
	src := mapSource{"account": benchAccounts(60000)}
	e := algebra.NewSelect(
		scalar.NewCompare(value.CmpGt, scalar.NewAttr(2), scalar.NewConst(value.NewInt(990))),
		algebra.NewRel("account"))
	benchPlan(b, e, src, 540)
}

// BenchmarkKeylessAggregate is Γ[() CNT(%1), SUM(%3)](σ[balance > 500](account))
// over 4096 rows: the served analytics statement `select count(*),
// sum(balance) from account where balance > 500`, a keyless aggregate over a
// filtered scan.
func BenchmarkKeylessAggregate(b *testing.B) {
	src := mapSource{"account": benchAccounts(4096)}
	e := algebra.NewGroupByMulti(nil,
		[]algebra.AggSpec{{Fn: algebra.AggCount, Col: 0}, {Fn: algebra.AggSum, Col: 2}},
		algebra.NewSelect(
			scalar.NewCompare(value.CmpGt, scalar.NewAttr(2), scalar.NewConst(value.NewInt(500))),
			algebra.NewRel("account")))
	benchPlan(b, e, src, 1)
}
