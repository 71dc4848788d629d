package multiset

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"mra/internal/tuple"
	"mra/internal/value"
)

// This file holds the properties of the key chain: a model-based test that a
// key lookup equals the filtered scan after any operation sequence, on every
// live view, the entry-size pin, and the clone-and-lookup race test.

// keyVals is the domain of the key column in the model test: the values a
// hash index gets wrong first.  Null, two NaN payloads, ±0 and the integer
// 0, 1 against 1.0, and two integers beyond 2^53 that share a float64 image.
// No float equals either big integer, so Equal is an equivalence on the set
// and a bag element is well defined.
var keyVals = []value.Value{
	value.Null,
	value.NewFloat(math.NaN()), value.NewFloat(math.Float64frombits(0x7ff8_0000_0000_beef)),
	value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)), value.NewInt(0),
	value.NewInt(1), value.NewFloat(1),
	value.NewInt(1 << 53), value.NewInt(1<<53 + 1),
	value.NewInt(-5), value.NewFloat(2.5),
}

// keyProbes are the lookup constants: every stored value plus absent ones.
var keyProbes = append(append([]value.Value(nil), keyVals...), value.NewInt(7), value.NewFloat(-2.5), value.NewInt(1<<53+2))

// keyClass returns the index of the first key value Equal to v: the model's
// name for v's equivalence class.
func keyClass(v value.Value) int64 {
	for i, k := range keyVals {
		if k.Equal(v) {
			return int64(i)
		}
	}
	panic(fmt.Sprintf("value %v outside the key domain", v))
}

// keyTuple builds the tuple (keyVals[i], b).
func keyTuple(i int, b int64) tuple.Tuple { return tuple.New(keyVals[i], value.NewInt(b)) }

// keyModelOf names a stored tuple in the model: (class of its key, b).
func keyModelOf(tp tuple.Tuple) [2]int64 { return [2]int64{keyClass(tp.At(0)), tp.At(1).Int()} }

// checkKeyLookups asserts that r holds exactly the model's bag and that, on
// the column r is keyed on, EachKey filtered by "= v" equals the scan
// filtered by "= v" for every probe v.  An unkeyed r must refuse lookups.
func checkKeyLookups(t *testing.T, r *Relation, m model) {
	t.Helper()
	checkTableInvariants(t, r.tab)
	got := make(model, len(m))
	r.Each(func(tp tuple.Tuple, n uint64) bool {
		got[keyModelOf(tp)] += n
		return true
	})
	if !maps.Equal(got, m) || r.DistinctCount() != len(m) {
		t.Fatalf("relation holds %v (%d distinct), model %v", got, r.DistinctCount(), m)
	}
	col, keyed := r.KeyColumn()
	if !keyed {
		if r.EachKey(0, keyVals[0], func(tuple.Tuple, uint64) bool { return true }) {
			t.Fatal("EachKey walked an unkeyed relation")
		}
		return
	}
	probes := keyProbes
	if col == 1 {
		probes = []value.Value{value.NewInt(0), value.NewInt(1), value.NewFloat(1), value.NewInt(2), value.Null}
	}
	for _, v := range probes {
		filter := func(into model) func(tp tuple.Tuple, n uint64) bool {
			return func(tp tuple.Tuple, n uint64) bool {
				if ok, err := value.CmpEq.Apply(tp.At(col), v); err == nil && ok {
					into[keyModelOf(tp)] += n
				}
				return true
			}
		}
		scanned, looked := model{}, model{}
		r.Each(filter(scanned))
		if !r.EachKey(col, v, filter(looked)) {
			t.Fatalf("EachKey(%d, %v) refused a relation keyed on %d", col, v, col)
		}
		if !maps.Equal(scanned, looked) {
			t.Fatalf("key %%%d = %v: lookup %v, filtered scan %v", col+1, v, looked, scanned)
		}
	}
}

// TestKeyChainModel drives random sequences of every mutator, set operator,
// clone and compaction over a family of views, some keyed and some not, and
// checks after every step that every view holds its model's bag and answers
// every key lookup exactly as the filtered scan does.  The chain must survive
// page copies, forks, rebuilds and revived tombstones with no code of its
// own on those paths.
func TestKeyChainModel(t *testing.T) {
	for _, bits := range []uint8{1, 2, 3, pageBits} {
		t.Run(fmt.Sprintf("pageBits=%d", bits), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(bits) + 29))
			s := intSchema(2)
			type view struct {
				rel *Relation
				m   model
			}
			randKey := func() (int, int64) { return rng.Intn(len(keyVals)), rng.Int63n(2) }
			randBag := func(max int) (*Relation, model) {
				r, m := newPaged(s, bits), model{}
				for i := rng.Intn(max + 1); i > 0; i-- {
					k, b := randKey()
					n := uint64(1 + rng.Intn(3))
					r.Add(keyTuple(k, b), n)
					m.add(keyModelOf(keyTuple(k, b)), n)
				}
				return r, m
			}
			views := []view{{newPaged(s, bits).WithKey(0), model{}}}
			for step := 0; step < 1500; step++ {
				v := views[rng.Intn(len(views))]
				switch op := rng.Intn(24); {
				case op < 4:
					k, b := randKey()
					n := uint64(rng.Intn(4))
					v.rel.Add(keyTuple(k, b), n)
					v.m.add(keyModelOf(keyTuple(k, b)), n)
				case op < 8:
					k, b := randKey()
					n := uint64(rng.Intn(4))
					v.rel.Remove(keyTuple(k, b), n)
					v.m.remove(keyModelOf(keyTuple(k, b)), n)
				case op < 9:
					k, b := randKey()
					n := uint64(rng.Intn(3))
					mk := keyModelOf(keyTuple(k, b))
					v.rel.SetMultiplicity(keyTuple(k, b), n)
					v.m.remove(mk, v.m[mk])
					v.m.add(mk, n)
				case op < 11:
					o, om := randBag(10)
					v.rel.ApplyDelta(o, nil)
					for k, n := range om {
						v.m.add(k, n)
					}
				case op < 14:
					add, am := randBag(4)
					rem, rm := randBag(6)
					v.rel.ApplyDelta(add, rem)
					for k, n := range rm {
						v.m.remove(k, n)
					}
					for k, n := range am {
						v.m.add(k, n)
					}
				case op < 16:
					views = append(views, view{v.rel.Clone(), maps.Clone(v.m)})
				case op < 17:
					forceCompact(v.rel)
				case op < 18:
					// Mass removal: crosses the compaction threshold by itself.
					for k, n := range v.m {
						if rng.Intn(4) > 0 {
							v.rel.Remove(keyTuple(int(k[0]), k[1]), n)
							delete(v.m, k)
						}
					}
				case op < 19:
					// Re-key: on the key column, on the other column, or off.
					views = append(views, view{v.rel.WithKey(rng.Intn(3) - 1), maps.Clone(v.m)})
				default:
					w := views[rng.Intn(len(views))]
					res, m := deltaMove(t, op%3, v.rel, w.rel, v.m, w.m)
					views = append(views, view{res, m})
				}
				if len(views) > 6 {
					i := rng.Intn(len(views))
					views = append(views[:i], views[i+1:]...)
				}
				for _, w := range views {
					checkKeyLookups(t, w.rel, w.m)
				}
			}
		})
	}
}

// TestKeyChainSurvivesSetOperators pins which results carry the key chain:
// a statement's result — a clone of the keyed target with its (add, remove)
// pair applied, for ⊎, ∸ and update alike — does, and the fresh relations
// Diff returns do not.
func TestKeyChainSurvivesSetOperators(t *testing.T) {
	s := intSchema(2)
	a := FromTuples(s, tuple.Ints(1, 1), tuple.Ints(2, 2), tuple.Ints(2, 2)).WithKey(0)
	b := FromTuples(s, tuple.Ints(2, 2), tuple.Ints(3, 3))
	applied := func(add, remove *Relation) *Relation {
		r := a.Clone()
		r.ApplyDelta(add, remove)
		return r
	}
	union := applied(b, nil)
	diff := applied(nil, b)
	// update(a, b, (%1, 0)): a ∩ b = {(2, 2)} leaves, (2, 0) arrives.
	update := applied(FromTuples(s, tuple.Ints(2, 0)), FromTuples(s, tuple.Ints(2, 2)))
	add, _ := Diff(b, a)
	for _, c := range []struct {
		name  string
		r     *Relation
		keyed bool
	}{{"union", union, true}, {"difference", diff, true}, {"update", update, true},
		{"clone", a.Clone(), true}, {"diff", add, false}} {
		if _, keyed := c.r.KeyColumn(); keyed != c.keyed {
			t.Errorf("%s: keyed = %v, want %v", c.name, keyed, c.keyed)
		}
	}
	lookup := func(r *Relation) []tuple.Tuple {
		var got []tuple.Tuple
		r.EachKey(0, value.NewInt(2), func(tp tuple.Tuple, n uint64) bool {
			for ; n > 0; n-- {
				got = append(got, tp)
			}
			return true
		})
		return got
	}
	if got := lookup(union); len(got) != 3 {
		t.Errorf("union lookup of 2 = %v, want (2, 2) three times", got)
	}
	if got := lookup(update); len(got) != 2 || got[0].Equal(got[1]) {
		t.Errorf("update lookup of 2 = %v, want (2, 2) and (2, 0) once each", got)
	}
}

// TestEntryStays48Bytes pins the layout the key link relies on: it fills the
// padding after next, so a keyed arena costs no more memory per entry.
func TestEntryStays48Bytes(t *testing.T) {
	if size := unsafe.Sizeof(entry{}); size != 48 {
		t.Errorf("entry is %d bytes, want 48", size)
	}
}

// TestCloneKeyLookupWhileOwnerWrites is the key-chain twin of
// TestCloneScanWhileOwnerWrites, meant for -race: readers clone a keyed
// relation under a read lock and look keys up on the clone outside it, while
// the owner applies transfer-shaped deltas and compacts under the write
// lock.  Every lookup must find exactly one live row of its id.
func TestCloneKeyLookupWhileOwnerWrites(t *testing.T) {
	const rows, balance, readers, commits = 600, 100, 4, 1500
	s := intSchema(2)
	live := New(s)
	for i := int64(0); i < rows; i++ {
		live.Add(tuple.Ints(i, balance), 1)
	}
	live = live.WithKey(0)
	var mu sync.RWMutex
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-done:
					return
				default:
				}
				mu.RLock()
				snap := live.Clone()
				mu.RUnlock()
				var sum int64
				for i := 0; i < 20; i++ {
					id := rng.Int63n(rows)
					var n uint64
					snap.EachKey(0, value.NewInt(id), func(tp tuple.Tuple, c uint64) bool {
						if tp.At(0).Int() == id {
							n += c
						}
						return true
					})
					if n != 1 {
						t.Errorf("reader %d: key %d has %d live rows in a clone, want 1", g, id, n)
						return
					}
				}
				for id := int64(0); id < rows; id++ {
					snap.EachKey(0, value.NewInt(id), func(tp tuple.Tuple, c uint64) bool {
						if tp.At(0).Int() == id {
							sum += tp.At(1).Int() * int64(c)
						}
						return true
					})
				}
				if sum != rows*balance {
					t.Errorf("reader %d: balances found by key sum to %d, want %d", g, sum, rows*balance)
					return
				}
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
		if c%200 == 0 {
			forceCompact(live)
		}
		mu.Unlock()
	}
	close(done)
	wg.Wait()
}
