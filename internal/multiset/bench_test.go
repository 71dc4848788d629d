package multiset

import (
	"fmt"
	"testing"

	"mra/internal/schema"
	"mra/internal/tuple"
	"mra/internal/value"
)

// The layer's own micro-benchmarks (ROADMAP item 1b).  CloneMutate,
// DiffSmallChange and ApplyDeltaShared are the write path of a transaction
// that changes a few rows of a large relation — the workloads the
// page-granular copy-on-write table exists for; Scan and BulkAdd are the
// guards that the paged arena and the paged bucket directory cost the read
// and sink paths nothing; KeyLookup is the point-read leaf over the key
// chain.  The page-size constant (pageBits) is justified by
// these numbers; see the package comment.

var benchSizes = []int{4096, 60000}

var benchSchema = schema.Anonymous(
	schema.Attribute{Name: "id", Type: value.KindInt},
	schema.Attribute{Name: "owner", Type: value.KindString},
	schema.Attribute{Name: "balance", Type: value.KindInt},
)

// benchRow is an account-shaped tuple: id, owner, balance.
func benchRow(id, balance int64) tuple.Tuple {
	return tuple.New(value.NewInt(id), value.NewString(fmt.Sprintf("owner-%d", id)), value.NewInt(balance))
}

// benchRelation returns n account rows in the state a stored relation is in
// under update traffic: loaded, then updated once.  (4096 rows loaded into a
// table sized for 4096 sit exactly on a growth boundary of the hash index,
// and the first insert of every clone would rebuild the table — a cost a
// live relation pays once, not once per transaction.)
func benchRelation(n int) *Relation {
	r := NewWithCapacity(benchSchema, n)
	for i := 0; i < n; i++ {
		r.Add(benchRow(int64(i), 1000), 1)
	}
	r.Remove(benchRow(0, 1000), 1)
	r.Add(benchRow(0, 1001), 1)
	return r
}

// benchSink keeps results alive so the compiler cannot drop the measured call.
var benchSink int

// BenchmarkCloneMutate is one transfer's worth of statement work on a shared
// relation: clone, remove two rows, add their two replacements.
func BenchmarkCloneMutate(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			r := benchRelation(n)
			oldA, oldB := benchRow(7, 1000), benchRow(int64(n/2), 1000)
			newA, newB := benchRow(7, 990), benchRow(int64(n/2), 1010)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := r.Clone()
				c.Remove(oldA, 1)
				c.Remove(oldB, 1)
				c.Add(newA, 1)
				c.Add(newB, 1)
				benchSink += c.DistinctCount()
			}
		})
	}
}

// BenchmarkDiffSmallChange is the commit-time Diff of a workspace that
// descends from its snapshot and differs from it in four rows.
func BenchmarkDiffSmallChange(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			base := benchRelation(n)
			next := base.Clone()
			next.Remove(benchRow(7, 1000), 1)
			next.Remove(benchRow(int64(n/2), 1000), 1)
			next.Add(benchRow(7, 990), 1)
			next.Add(benchRow(int64(n/2), 1010), 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				add, remove := Diff(base, next)
				benchSink += add.DistinctCount() + remove.DistinctCount()
			}
		})
	}
}

// BenchmarkApplyDeltaShared is storage's install step: the live instance is
// shared with a snapshot taken after the previous commit, so every delta
// lands on a copy-on-write table.  The deltas move one row's balance back and
// forth, so the relation keeps its size however long the benchmark runs.
func BenchmarkApplyDeltaShared(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			live := benchRelation(n)
			id := int64(n / 2)
			lo, hi := FromTuples(live.Schema(), benchRow(id, 1000)), FromTuples(live.Schema(), benchRow(id, 1010))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap := live.Clone()
				if i%2 == 0 {
					live.ApplyDelta(hi, lo)
				} else {
					live.ApplyDelta(lo, hi)
				}
				benchSink += snap.DistinctCount()
			}
		})
	}
}

// BenchmarkScan is the leaf of every plan: EachBatch over 60 000 rows.
func BenchmarkScan(b *testing.B) {
	r := benchRelation(60000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.EachBatch(0, r.EntrySpan(), 1024, func(tuples []tuple.Tuple, counts []uint64) bool {
			benchSink += len(tuples)
			return true
		})
	}
}

// BenchmarkKeyLookup is the leaf of a point read: one EachKey walk of the
// key chain on id, against BenchmarkScan's whole-arena pass.
func BenchmarkKeyLookup(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			r := benchRelation(n).WithKey(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.EachKey(0, value.NewInt(int64(i%n)), func(tuple.Tuple, uint64) bool {
					benchSink++
					return true
				})
			}
		})
	}
}

// BenchmarkBulkAdd is the sink of every plan and the bulk-load path: 60 000
// distinct tuples through AddBatch into an unsized relation, crossing every
// growth of the arena and of the hash index.
func BenchmarkBulkAdd(b *testing.B) {
	const n, batch = 60000, 1024
	tuples := make([]tuple.Tuple, n)
	counts := make([]uint64, n)
	for i := range tuples {
		tuples[i] = benchRow(int64(i), 1000)
		counts[i] = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := New(benchSchema)
		for lo := 0; lo < n; lo += batch {
			hi := min(lo+batch, n)
			r.AddBatch(tuples[lo:hi], counts[lo:hi])
		}
		benchSink += r.DistinctCount()
	}
}
