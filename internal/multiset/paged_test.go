package multiset

import (
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"

	"mra/internal/schema"
	"mra/internal/tuple"
)

// This file holds the properties of the page-granular copy-on-write table:
// a model-based test of every mutator at page sizes small enough that page
// boundaries, directory growth and rebuilds are crossed constantly, the Diff
// oracle, the clone-and-scan race test and the arena-leak regression test.

// newPaged is the test hook for the table geometry: an empty relation whose
// arena pages hold 1<<bits entries.  Everything derived from it (forks,
// rebuilds) keeps that geometry.
func newPaged(s schema.Relation, bits uint8) *Relation {
	return &Relation{schema: s, tab: newTable(0, bits)}
}

// forceCompact rebuilds the relation's table dense, as compaction would.
func forceCompact(r *Relation) {
	r.materialize()
	r.tab.rebuild()
}

// model is the naive reference: multiplicity by tuple, keyed by the two
// integer attributes the test tuples carry.
type model map[[2]int64]uint64

func (m model) add(k [2]int64, n uint64) {
	if n > 0 {
		m[k] += n
	}
}

func (m model) remove(k [2]int64, n uint64) {
	if m[k] <= n {
		delete(m, k)
	} else {
		m[k] -= n
	}
}

func keyOf(t tuple.Tuple) [2]int64 {
	a, _ := t.At(0).AsInt()
	b, _ := t.At(1).AsInt()
	return [2]int64{a, b}
}

func tupleOf(k [2]int64) tuple.Tuple { return tuple.Ints(k[0], k[1]) }

// checkTableInvariants asserts the structural invariants the public iterators
// rely on: every page but the last is full, the span is the sum of the page
// lengths, and the live/total counters match the entries.
func checkTableInvariants(t *testing.T, tab *table) {
	t.Helper()
	span, live, total := 0, 0, uint64(0)
	for pi, pg := range tab.pages {
		if pi < len(tab.pages)-1 && len(pg.ents) != 1<<tab.pageBits {
			t.Fatalf("page %d of %d holds %d entries, want a full %d", pi, len(tab.pages), len(pg.ents), 1<<tab.pageBits)
		}
		if len(pg.ents) == 0 || len(pg.ents) > 1<<tab.pageBits {
			t.Fatalf("page %d holds %d entries", pi, len(pg.ents))
		}
		span += len(pg.ents)
		for i := range pg.ents {
			if pg.ents[i].count > 0 {
				live++
				total += pg.ents[i].count
			}
		}
	}
	if span != tab.n || live != tab.live || total != tab.total {
		t.Fatalf("counters (n, live, total) = (%d, %d, %d), entries say (%d, %d, %d)", tab.n, tab.live, tab.total, span, live, total)
	}
	if tab.n > tab.buckets {
		t.Fatalf("arena span %d exceeds the %d buckets", tab.n, tab.buckets)
	}
}

// checkAgainstModel asserts that every read path of r agrees with m.
func checkAgainstModel(t *testing.T, rng *rand.Rand, r *Relation, m model, domain int64) {
	t.Helper()
	checkTableInvariants(t, r.tab)
	var card uint64
	for _, n := range m {
		card += n
	}
	if r.DistinctCount() != len(m) || r.Cardinality() != card || r.IsEmpty() != (card == 0) {
		t.Fatalf("distinct/cardinality = %d/%d, model %d/%d", r.DistinctCount(), r.Cardinality(), len(m), card)
	}
	// Point lookups over the whole domain, present or not.
	for a := int64(0); a < domain; a++ {
		for b := int64(0); b < 2; b++ {
			k := [2]int64{a, b}
			if got := r.Multiplicity(tupleOf(k)); got != m[k] {
				t.Fatalf("Multiplicity(%v) = %d, model %d", k, got, m[k])
			}
		}
	}
	// Each and EachHash deliver the model exactly once per tuple.
	seen := make(model, len(m))
	hashes := make(map[uint64]bool, len(m))
	r.EachHash(func(tp tuple.Tuple, h uint64, n uint64) bool {
		k := keyOf(tp)
		if _, dup := seen[k]; dup || h != tp.Hash() {
			t.Fatalf("EachHash delivered %v twice or with a wrong hash", k)
		}
		seen[k] = n
		hashes[h] = true
		return true
	})
	if !maps.Equal(seen, m) {
		t.Fatalf("EachHash = %v, model %v", seen, m)
	}
	for a := int64(0); a < domain; a++ {
		for b := int64(0); b < 2; b++ {
			h := tuple.Ints(a, b).Hash()
			if r.ContainsHash(h) != hashes[h] {
				t.Fatalf("ContainsHash(%d,%d) = %v, want %v", a, b, r.ContainsHash(h), hashes[h])
			}
		}
	}
	// Any partition of the entry span covers each occurrence exactly once.
	span := r.EntrySpan()
	ranged := make(model, len(m))
	for lo := 0; lo < span; {
		hi := lo + 1 + rng.Intn(7)
		r.EachBatch(lo, hi, 1+rng.Intn(3), func(tuples []tuple.Tuple, counts []uint64) bool {
			for i := range tuples {
				ranged[keyOf(tuples[i])] += counts[i]
			}
			return true
		})
		lo = hi
	}
	if !maps.Equal(ranged, m) {
		t.Fatalf("EachBatch partition = %v, model %v", ranged, m)
	}
	batched := make(model, len(m))
	r.EachBatch(0, span, 5, func(tuples []tuple.Tuple, counts []uint64) bool {
		for i := range tuples {
			batched[keyOf(tuples[i])] += counts[i]
		}
		return true
	})
	if !maps.Equal(batched, m) {
		t.Fatalf("EachBatch = %v, model %v", batched, m)
	}
}

// TestModelRandomOps drives random sequences of every mutator over a family
// of copy-on-write views and checks, after every step, that every view —
// the mutated one and every clone taken earlier — still equals its own model:
// snapshot stability is the whole point of the owner protocol.
func TestModelRandomOps(t *testing.T) {
	const domain = 48
	for _, bits := range []uint8{1, 2, 3, pageBits} {
		t.Run(fmt.Sprintf("pageBits=%d", bits), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(bits)))
			s := intSchema(2)
			type view struct {
				rel *Relation
				m   model
			}
			views := []view{{newPaged(s, bits), model{}}}
			randKey := func() [2]int64 { return [2]int64{rng.Int63n(domain), rng.Int63n(2)} }
			randBag := func(max int) (*Relation, model) {
				r, m := newPaged(s, bits), model{}
				for i := rng.Intn(max + 1); i > 0; i-- {
					k, n := randKey(), uint64(1+rng.Intn(3))
					r.Add(tupleOf(k), n)
					m.add(k, n)
				}
				return r, m
			}
			for step := 0; step < 1500; step++ {
				v := views[rng.Intn(len(views))]
				switch op := rng.Intn(23); {
				case op < 4:
					k, n := randKey(), uint64(rng.Intn(4))
					v.rel.Add(tupleOf(k), n)
					v.m.add(k, n)
				case op < 8:
					k, n := randKey(), uint64(rng.Intn(4))
					want := min(n, v.m[k])
					if got := v.rel.Remove(tupleOf(k), n); got != want {
						t.Fatalf("step %d: Remove returned %d, want %d", step, got, want)
					}
					v.m.remove(k, n)
				case op < 9:
					k, n := randKey(), uint64(rng.Intn(3))
					v.rel.SetMultiplicity(tupleOf(k), n)
					v.m.remove(k, v.m[k])
					v.m.add(k, n)
				case op < 11:
					var tuples []tuple.Tuple
					var counts []uint64
					var sel []int32
					for i := 0; i < rng.Intn(12); i++ {
						tuples = append(tuples, tupleOf(randKey()))
						counts = append(counts, uint64(rng.Intn(3)))
						if rng.Intn(2) == 0 {
							sel = append(sel, int32(i))
						}
					}
					if op == 9 {
						v.rel.AddBatch(tuples, counts)
						for i := range tuples {
							v.m.add(keyOf(tuples[i]), counts[i])
						}
					} else {
						v.rel.AddBatchSel(tuples, counts, sel)
						for _, i := range sel {
							v.m.add(keyOf(tuples[i]), counts[i])
						}
					}
				case op < 12:
					o, om := randBag(10)
					v.rel.ApplyDelta(o, nil)
					for k, n := range om {
						v.m.add(k, n)
					}
				case op < 15:
					add, am := randBag(4)
					rem, rm := randBag(6)
					v.rel.ApplyDelta(add, rem)
					for k, n := range rm {
						v.m.remove(k, n)
					}
					for k, n := range am {
						v.m.add(k, n)
					}
				case op < 17:
					views = append(views, view{v.rel.Clone(), maps.Clone(v.m)})
				case op < 18:
					views = append(views, view{v.rel.WithSchema(intSchema(2)), maps.Clone(v.m)})
				case op < 19:
					forceCompact(v.rel)
				case op < 20:
					// Mass removal: crosses the compaction threshold by itself.
					for k := range v.m {
						if rng.Intn(4) > 0 {
							v.rel.Remove(tupleOf(k), v.m[k])
							delete(v.m, k)
						}
					}
				default:
					// A statement's move over two views (possibly the same one,
					// or a clone sharing its pages) is a new view; both operands
					// must be left as they were, which the loop below checks.
					w := views[rng.Intn(len(views))]
					res, m := deltaMove(t, op%3, v.rel, w.rel, v.m, w.m)
					views = append(views, view{res, m})
				}
				if len(views) > 6 {
					i := rng.Intn(len(views))
					views = append(views[:i], views[i+1:]...)
				}
				for _, w := range views {
					checkAgainstModel(t, rng, w.rel, w.m, domain)
				}
			}
		})
	}
}

// naiveDiff is Diff written as its definition reads, with no knowledge of the
// physical format: add(x) = next(x) ∸ base(x), remove(x) = base(x) ∸ next(x).
func naiveDiff(base, next *Relation) (add, remove *Relation) {
	add, remove = New(next.Schema()), New(base.Schema())
	next.Each(func(tp tuple.Tuple, n uint64) bool {
		if old := base.Multiplicity(tp); n > old {
			add.Add(tp, n-old)
		}
		return true
	})
	base.Each(func(tp tuple.Tuple, n uint64) bool {
		if cur := next.Multiplicity(tp); n > cur {
			remove.Add(tp, n-cur)
		}
		return true
	})
	return add, remove
}

// naiveSubset is SubsetOf over the public read paths only.
func naiveSubset(a, b *Relation) bool {
	ok := true
	a.Each(func(tp tuple.Tuple, n uint64) bool {
		ok = n <= b.Multiplicity(tp)
		return ok
	})
	return ok
}

// TestDiffOracle checks the sharing-aware Diff (and the Equal/SubsetOf
// shortcuts built on the same page skipping) against the definition for
// every ancestry two tables can have: one table, descendant, siblings,
// unrelated, and either side rebuilt by a compaction.
func TestDiffOracle(t *testing.T) {
	const domain = 200
	s := intSchema(2)
	for _, bits := range []uint8{1, 3, pageBits} {
		rng := rand.New(rand.NewSource(100 + int64(bits)))
		build := func(n int) *Relation {
			r := newPaged(s, bits)
			for i := 0; i < n; i++ {
				r.Add(tuple.Ints(rng.Int63n(domain), rng.Int63n(2)), uint64(1+rng.Intn(3)))
			}
			return r
		}
		mutate := func(r *Relation, writes int) {
			for i := 0; i < writes; i++ {
				tp := tuple.Ints(rng.Int63n(domain), rng.Int63n(2))
				if rng.Intn(2) == 0 {
					r.Add(tp, uint64(1+rng.Intn(2)))
				} else {
					r.Remove(tp, uint64(1+rng.Intn(3)))
				}
			}
		}
		scenarios := map[string]func() (base, next *Relation){
			"same table": func() (*Relation, *Relation) {
				base := build(150)
				return base, base.Clone()
			},
			"descendant": func() (*Relation, *Relation) {
				base := build(150)
				next := base.Clone()
				mutate(next, rng.Intn(12))
				return base, next
			},
			"ancestor mutated after the clone": func() (*Relation, *Relation) {
				next := build(150)
				base := next.Clone()
				mutate(next, rng.Intn(12))
				mutate(base, rng.Intn(4))
				return base, next
			},
			"siblings": func() (*Relation, *Relation) {
				root := build(150)
				a, b := root.Clone(), root.Clone()
				mutate(a, rng.Intn(12))
				mutate(b, rng.Intn(12))
				return a, b
			},
			"unrelated": func() (*Relation, *Relation) {
				return build(rng.Intn(150)), build(rng.Intn(150))
			},
			"base compacted": func() (*Relation, *Relation) {
				root := build(150)
				base, next := root.Clone(), root.Clone()
				mutate(next, rng.Intn(12))
				forceCompact(base)
				return base, next
			},
			"next compacted": func() (*Relation, *Relation) {
				base := build(150)
				next := base.Clone()
				mutate(next, rng.Intn(12))
				forceCompact(next)
				mutate(next, rng.Intn(4))
				return base, next
			},
		}
		for name, scenario := range scenarios {
			t.Run(fmt.Sprintf("pageBits=%d/%s", bits, name), func(t *testing.T) {
				for trial := 0; trial < 40; trial++ {
					base, next := scenario()
					add, remove := Diff(base, next)
					wantAdd, wantRemove := naiveDiff(base, next)
					if !naiveSubset(add, wantAdd) || !naiveSubset(wantAdd, add) ||
						!naiveSubset(remove, wantRemove) || !naiveSubset(wantRemove, remove) {
						t.Fatalf("trial %d: Diff = +%s -%s, definition gives +%s -%s", trial, add, remove, wantAdd, wantRemove)
					}
					add.Each(func(tp tuple.Tuple, _ uint64) bool {
						if remove.Contains(tp) {
							t.Fatalf("trial %d: %v is both added and removed", trial, tp)
						}
						return true
					})
					replay := base.Clone()
					replay.ApplyDelta(add, remove)
					if !naiveSubset(replay, next) || !naiveSubset(next, replay) {
						t.Fatalf("trial %d: (base ∸ remove) ⊎ add = %s, next = %s", trial, replay, next)
					}
					equal := wantAdd.IsEmpty() && wantRemove.IsEmpty()
					if base.Equal(next) != equal || next.Equal(base) != equal {
						t.Fatalf("trial %d: Equal = %v/%v, definition %v", trial, base.Equal(next), next.Equal(base), equal)
					}
					if base.SubsetOf(next) != wantRemove.IsEmpty() || next.SubsetOf(base) != wantAdd.IsEmpty() {
						t.Fatalf("trial %d: SubsetOf disagrees with the definition", trial)
					}
					if !replay.Equal(next) {
						t.Fatalf("trial %d: replayed base is not Equal to next", trial)
					}
				}
			})
		}
	}
}

// TestDiffProbesOnlyUnsharedPages pins the complexity claim, not just the
// result: a descendant that differs from its base in a few rows shares all
// but a few pages with it.
func TestDiffProbesOnlyUnsharedPages(t *testing.T) {
	base := New(intSchema(2))
	for i := int64(0); i < 4096; i++ {
		base.Add(tuple.Ints(i, 0), 1)
	}
	base.Add(tuple.Ints(4096, 0), 1) // past the index growth boundary at 4096
	next := base.Clone()
	next.Remove(tuple.Ints(7, 0), 1)
	next.Add(tuple.Ints(7, 1), 1)
	next.Remove(tuple.Ints(2048, 0), 1)
	next.Add(tuple.Ints(2048, 1), 1)
	unshared := 0
	for pi, pg := range next.tab.pages {
		if pi >= len(base.tab.pages) || !samePage(pg.ents, base.tab.pages[pi].ents) {
			unshared++
		}
	}
	// Two removed rows and the tail page the two new rows were appended to.
	if unshared > 3 {
		t.Fatalf("%d of %d pages unshared after 4 row changes, want at most 3", unshared, len(next.tab.pages))
	}
	add, remove := Diff(base, next)
	if add.Cardinality() != 2 || remove.Cardinality() != 2 {
		t.Fatalf("Diff = +%s -%s", add, remove)
	}
}

// TestCloneScanWhileOwnerWrites is the sharing race test (run under -race):
// readers clone one relation under a read lock — as storage.Snapshot does —
// and scan their clone outside it through every read path, while the owner
// applies transfer-shaped deltas under the write lock — as
// storage.ApplyDeltas does.  Every clone must be a consistent state: row
// count and balance sum are invariants of the deltas.
func TestCloneScanWhileOwnerWrites(t *testing.T) {
	const rows, balance, readers, commits = 600, 100, 4, 1500
	s := intSchema(2)
	live := New(s)
	for i := int64(0); i < rows; i++ {
		live.Add(tuple.Ints(i, balance), 1)
	}
	var mu sync.RWMutex
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var prev *Relation
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				mu.RLock()
				snap := live.Clone()
				mu.RUnlock()
				var n, sum int64
				count := func(tp tuple.Tuple, c uint64) bool {
					v, _ := tp.At(1).AsInt()
					n += int64(c)
					sum += v * int64(c)
					return true
				}
				switch i % 3 {
				case 0:
					snap.Each(count)
				case 1:
					for lo, span := 0, snap.EntrySpan(); lo < span; lo += 50 {
						snap.EachBatch(lo, lo+50, 7, func(tuples []tuple.Tuple, counts []uint64) bool {
							for j := range tuples {
								count(tuples[j], counts[j])
							}
							return true
						})
					}
				default:
					snap.EachBatch(0, snap.EntrySpan(), 64, func(tuples []tuple.Tuple, counts []uint64) bool {
						for j := range tuples {
							count(tuples[j], counts[j])
						}
						return true
					})
				}
				if n != rows || sum != rows*balance {
					t.Errorf("reader %d: clone has %d rows summing to %d, want %d and %d", g, n, sum, rows, rows*balance)
					return
				}
				if prev != nil {
					add, remove := Diff(prev, snap)
					if add.Cardinality() != remove.Cardinality() {
						t.Errorf("reader %d: diff of two clones adds %d rows and removes %d", g, add.Cardinality(), remove.Cardinality())
						return
					}
				}
				prev = snap
			}
		}(g)
	}
	rng := rand.New(rand.NewSource(3))
	balances := make([]int64, rows)
	for i := range balances {
		balances[i] = balance
	}
	for c := 0; c < commits; c++ {
		from, to := rng.Intn(rows), rng.Intn(rows)
		if from == to {
			continue
		}
		add, remove := New(s), New(s)
		remove.Add(tuple.Ints(int64(from), balances[from]), 1)
		remove.Add(tuple.Ints(int64(to), balances[to]), 1)
		balances[from]--
		balances[to]++
		add.Add(tuple.Ints(int64(from), balances[from]), 1)
		add.Add(tuple.Ints(int64(to), balances[to]), 1)
		mu.Lock()
		live.ApplyDelta(add, remove)
		mu.Unlock()
	}
	close(done)
	wg.Wait()
}

// TestUpdateTrafficDoesNotGrowArena is the regression test for the arena
// leak: every update leaves a tombstone and appends an entry, so without
// compaction the arena of a relation of constant size grows without bound —
// and every scan, directory copy and Diff with it.
func TestUpdateTrafficDoesNotGrowArena(t *testing.T) {
	const rows, updates = 4096, 10000
	s := intSchema(2)
	live := New(s)
	balances := make([]int64, rows)
	for i := int64(0); i < rows; i++ {
		live.Add(tuple.Ints(i, 0), 1)
	}
	rng := rand.New(rand.NewSource(5))
	for u := 0; u < updates; u++ {
		snap := live.Clone() // the live instance is always shared with a snapshot
		id := rng.Intn(rows)
		add, remove := New(s), New(s)
		remove.Add(tuple.Ints(int64(id), balances[id]), 1)
		balances[id]++
		add.Add(tuple.Ints(int64(id), balances[id]), 1)
		live.ApplyDelta(add, remove)
		if snap.DistinctCount() != rows {
			t.Fatalf("update %d: snapshot lost rows", u)
		}
		if span, limit := live.EntrySpan(), 2*live.DistinctCount()+1<<pageBits; span > limit {
			t.Fatalf("update %d: arena span %d for %d live rows, limit %d", u, span, live.DistinctCount(), limit)
		}
	}
	if live.DistinctCount() != rows || live.Cardinality() != rows {
		t.Fatalf("relation holds %d rows / %d occurrences, want %d", live.DistinctCount(), live.Cardinality(), rows)
	}
	// Deletes append nothing, so only tombstone compaction can shrink the
	// arena behind them.
	for id := 0; id < rows; id++ {
		if id%10 != 0 {
			live.Remove(tuple.Ints(int64(id), balances[id]), 1)
		}
		if span, limit := live.EntrySpan(), 2*live.DistinctCount()+1<<pageBits; span > limit {
			t.Fatalf("delete %d: arena span %d for %d live rows, limit %d", id, span, live.DistinctCount(), limit)
		}
	}
}
