package storage

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"mra/internal/multiset"
	"mra/internal/schema"
	"mra/internal/tuple"
	"mra/internal/value"
)

// newKeyLogDB builds a database with one (k, v) relation named "r" holding
// rows (0..rows-1, 0).
func newKeyLogDB(t *testing.T, rows int) *Database {
	t.Helper()
	db := NewDatabase()
	s := schema.NewRelation("r",
		schema.Attribute{Name: "k", Type: value.KindInt},
		schema.Attribute{Name: "v", Type: value.KindInt})
	if err := db.CreateRelation(s); err != nil {
		t.Fatal(err)
	}
	seed := multiset.New(s)
	for k := 0; k < rows; k++ {
		seed.Add(tuple.Ints(int64(k), 0), 1)
	}
	if _, err := db.Apply(map[string]*multiset.Relation{"r": seed}); err != nil {
		t.Fatal(err)
	}
	return db
}

// deltaFor builds the delta replacing row (k, old) with (k, old+1).
func deltaFor(db *Database, k, old int64) Delta {
	s, _ := db.RelationSchema("r")
	add, remove := multiset.New(s), multiset.New(s)
	remove.Add(tuple.Ints(k, old), 1)
	add.Add(tuple.Ints(k, old+1), 1)
	return Delta{Add: add, Remove: remove}
}

func TestSnapshotReleaseIdempotent(t *testing.T) {
	db := newKeyLogDB(t, 2)
	s1 := db.Snapshot()
	s2 := db.Snapshot()
	if len(db.liveSnaps) != 1 || db.liveSnaps[s1.Version()] != 2 {
		t.Fatalf("two snapshots at one version must refcount: %v", db.liveSnaps)
	}
	s1.Release()
	s1.Release() // idempotent: must not decrement twice
	if db.liveSnaps[s2.Version()] != 1 {
		t.Fatalf("double release decremented twice: %v", db.liveSnaps)
	}
	s2.Release()
	if len(db.liveSnaps) != 0 {
		t.Fatalf("all released, refcounts must be empty: %v", db.liveSnaps)
	}
	var nilSnap *Snapshot
	nilSnap.Release() // must not panic
}

// TestKeyLogPruneFallsBackConservatively pins the degradation contract: once
// a snapshot's version falls below the pruned floor, validation against it
// must degrade to the relation-granular check — conflicting whenever the
// relation changed at all — rather than consult a log with discarded history.
func TestKeyLogPruneFallsBackConservatively(t *testing.T) {
	db := newKeyLogDB(t, 4)
	old := db.Snapshot()
	// Advance the relation past the old snapshot, on a key the old snapshot's
	// hypothetical delta will NOT touch.
	tip := db.Snapshot()
	if _, err := db.ApplyDeltas(tip.Version(), map[string]Delta{"r": deltaFor(db, 0, 0)}, nil); err != nil {
		t.Fatal(err)
	}
	tip.Release()
	// While old is live, pruning must not discard the entry it validates
	// against: a disjoint-key delta from old still commits.
	db.PruneKeyLogs()
	if _, err := db.ApplyDeltas(old.Version(), map[string]Delta{"r": deltaFor(db, 1, 0)}, nil); err != nil {
		t.Fatalf("disjoint-key delta from a live snapshot must commit: %v", err)
	}
	// Take a fresh snapshot from the same horizon, release old, prune: the
	// floor passes old's version and its key history is gone.
	stale := old.Version()
	old.Release()
	db.PruneKeyLogs()
	if _, pruned := db.KeyLogStats("r"); pruned <= stale {
		t.Fatalf("pruned floor %d must pass the released snapshot version %d", pruned, stale)
	}
	// A validator still holding the stale version must now conflict even on
	// an untouched key — conservative, never wrong.
	if _, err := db.ApplyDeltas(stale, map[string]Delta{"r": deltaFor(db, 3, 0)}, nil); !errors.Is(err, ErrVersionConflict) {
		t.Fatalf("below-floor validation must degrade to relation-granular conflict, got %v", err)
	}
}

// TestKeyLogPruningNeverDropsLiveEntries is the snapshot-lifecycle property
// test: a random interleaving of snapshot captures, key-granular commits,
// snapshot releases (in injected random orders, not FIFO), and prune calls,
// checked against a full-history oracle after every step.  The invariant:
// for every still-live snapshot at or above the pruned floor, the key log
// still contains every key touched after that snapshot's version — i.e.
// pruning never discards an entry a live transaction could still need to
// validate against.
func TestKeyLogPruningNeverDropsLiveEntries(t *testing.T) {
	const rows = 8
	const steps = 400
	for trial := int64(0); trial < 5; trial++ {
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(trial))
			db := newKeyLogDB(t, rows)
			vals := make([]int64, rows) // current v per key, to build valid deltas

			type oracleEntry struct {
				hash    uint64
				version uint64
			}
			var touched []oracleEntry // full history, never pruned
			var live []*Snapshot

			check := func(step int) {
				entries, pruned := db.KeyLogStats("r")
				_ = entries
				for _, s := range live {
					if s.Version() < pruned {
						continue // below the floor: conservative fallback covers it
					}
					for _, e := range touched {
						if e.version <= s.Version() {
							continue
						}
						st, ok := db.keylogs["r"].keys[e.hash]
						if !ok {
							t.Fatalf("step %d: key %d touched at v%d pruned while snapshot v%d (>= floor %d) is live",
								step, e.hash, e.version, s.Version(), pruned)
						}
						if st.version <= s.Version() {
							t.Fatalf("step %d: key %d stamp v%d regressed below touch v%d with snapshot v%d live",
								step, e.hash, st.version, e.version, s.Version())
						}
					}
				}
			}

			for step := 0; step < steps; step++ {
				switch op := rng.Intn(10); {
				case op < 3: // capture a snapshot
					live = append(live, db.Snapshot())
				case op < 4 && len(live) > 0: // release a RANDOM live snapshot
					i := rng.Intn(len(live))
					live[i].Release()
					live = append(live[:i], live[i+1:]...)
				case op < 5: // explicit prune
					db.PruneKeyLogs()
				default: // commit a delta on a random key from the current tip
					k := int64(rng.Intn(rows))
					since := db.Snapshot()
					d := deltaFor(db, k, vals[k])
					if _, err := db.ApplyDeltas(since.Version(), map[string]Delta{"r": d}, nil); err != nil {
						t.Fatalf("step %d: tip-snapshot delta must commit: %v", step, err)
					}
					since.Release()
					vals[k]++
					db.mu.RLock()
					v := db.versions["r"]
					db.mu.RUnlock()
					old := tuple.Ints(k, vals[k]-1)
					cur := tuple.Ints(k, vals[k])
					touched = append(touched,
						oracleEntry{hash: old.Hash(), version: v},
						oracleEntry{hash: cur.Hash(), version: v})
				}
				check(step)
			}
			for _, s := range live {
				s.Release()
			}
		})
	}
}

// TestKeyLogHardCapEviction drives a synthetic key log past the hard cap and
// checks that eviction raises the pruned floor to cover everything discarded:
// no entry may vanish while the floor still claims the log covers its era.
func TestKeyLogHardCapEviction(t *testing.T) {
	l := &keyLog{keys: make(map[uint64]keyStamp)}
	n := keyLogMaxEntries + 100
	for i := 0; i < n; i++ {
		l.keys[uint64(i)] = keyStamp{version: uint64(i + 1)}
	}
	l.prune(0) // floor prunes nothing; the hard cap must engage
	if len(l.keys) > keyLogMaxEntries {
		t.Fatalf("hard cap not enforced: %d entries", len(l.keys))
	}
	for h, st := range l.keys {
		if st.version <= l.pruned {
			t.Fatalf("surviving key %d at v%d is at or below the floor %d", h, st.version, l.pruned)
		}
	}
	// Every key whose version exceeds the floor must have survived.
	for i := 0; i < n; i++ {
		if v := uint64(i + 1); v > l.pruned {
			if _, ok := l.keys[uint64(i)]; !ok {
				t.Fatalf("key %d at v%d above the floor %d was evicted", i, v, l.pruned)
			}
		}
	}
}

// TestWholesaleReplacementConflictsAllKeys pins that Apply/DDL stamp the
// relation wholesale: any in-flight key-granular delta from before the
// replacement conflicts, regardless of which keys it touches.
func TestWholesaleReplacementConflictsAllKeys(t *testing.T) {
	db := newKeyLogDB(t, 4)
	snap := db.Snapshot()
	defer snap.Release()
	s, _ := db.RelationSchema("r")
	fresh := multiset.New(s)
	fresh.Add(tuple.Ints(99, 99), 1)
	if _, err := db.Apply(map[string]*multiset.Relation{"r": fresh}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ApplyDeltas(snap.Version(), map[string]Delta{"r": deltaFor(db, 0, 0)}, nil); !errors.Is(err, ErrVersionConflict) {
		t.Fatalf("delta across a wholesale replacement must conflict, got %v", err)
	}
	if err := db.ValidateReads(snap.Version(), map[string]*multiset.Relation{"r": fresh}); !errors.Is(err, ErrVersionConflict) {
		t.Fatalf("read validation across a wholesale replacement must conflict, got %v", err)
	}
}

// TestKeyLogPruneRearmsUnderPinnedSnapshot is the regression test for the
// prune thrash: while a long-lived snapshot pins the floor a prune pass
// discards nothing, so the commit path must not run one per commit (each
// walks the whole log under the exclusive storage lock) but only each time
// the log has doubled — a logarithmic number of passes.
func TestKeyLogPruneRearmsUnderPinnedSnapshot(t *testing.T) {
	const commits = 3 * keyLogPruneThreshold
	db := newKeyLogDB(t, commits)
	pin := db.Snapshot()
	for k := int64(0); k < commits; k++ {
		since := db.Snapshot()
		if _, err := db.ApplyDeltas(since.Version(), map[string]Delta{"r": deltaFor(db, k, 0)}, nil); err != nil {
			t.Fatalf("commit %d: %v", k, err)
		}
		since.Release()
	}
	log := db.keylogs["r"]
	entries, pruned := db.KeyLogStats("r")
	if pruned > pin.Version() {
		t.Fatalf("floor %d passed the pinned snapshot's version %d", pruned, pin.Version())
	}
	if entries != 2*commits {
		t.Fatalf("entries = %d, want every key touched above the pin (%d)", entries, 2*commits)
	}
	// The log doubled log2(entries/threshold) times since its first pass.
	if limit := bits.Len(uint(entries / keyLogPruneThreshold)); log.passes > limit {
		t.Fatalf("%d prune passes for %d commits under a pinned floor, want at most %d", log.passes, commits, limit)
	}
	// Once the reader lets go a pass reclaims the log, and the trigger is back
	// at the threshold: the pinned episode leaves no lasting slack.
	pin.Release()
	db.PruneKeyLogs()
	if entries, _ := db.KeyLogStats("r"); entries != 0 {
		t.Fatalf("entries after release and prune = %d, want 0", entries)
	}
	if log.rearm > keyLogPruneThreshold || log.due() {
		t.Fatalf("trigger not re-armed at the threshold: rearm = %d, due = %v", log.rearm, log.due())
	}
}
