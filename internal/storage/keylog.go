package storage

import (
	"fmt"
	"sort"
	"strings"

	"mra/internal/multiset"
	"mra/internal/tuple"
)

// Delta is one relation's mutation as a pair of Add/Remove multisets keyed by
// tuple hash (the shape multiset.Diff produces): committing it removes every
// occurrence of Remove from the live instance (monus) and adds every
// occurrence of Add.  Deltas over disjoint keys commute — the paper's bag
// semantics makes multiset union associative and commutative — which is what
// lets ApplyDeltas merge-install concurrent writers instead of aborting them.
type Delta struct {
	// Add holds the occurrences the transaction added beyond its snapshot.
	Add *multiset.Relation
	// Remove holds the occurrences of the snapshot the transaction removed.
	Remove *multiset.Relation
}

// Empty reports whether the delta changes nothing.
func (d Delta) Empty() bool {
	return (d.Add == nil || d.Add.IsEmpty()) && (d.Remove == nil || d.Remove.IsEmpty())
}

// Key-log sizing: a relation's log is floor-pruned once it crosses
// keyLogPruneThreshold entries — and after a prune that a pinned snapshot
// floor made fruitless, only once it has doubled again, so a long-lived
// reader costs a logarithmic number of passes, not one per commit — and
// hard-capped at keyLogMaxEntries by evicting its older half (raising the
// pruned floor, so validation against evicted history falls back to the
// conservative relation-version check).
const (
	keyLogPruneThreshold = 4096
	keyLogMaxEntries     = 1 << 16
)

// keyStamp records when a tuple key last changed.  version is the change
// clock of the last committed delta touching the key at all; removed is the
// clock of the last delta that removed occurrences of it.  The distinction is
// what makes pure additions commute: an add-only delta conflicts only with a
// later removal of its key, never with other adds (bag union is commutative),
// while a removal conflicts with any later touch.
type keyStamp struct {
	version uint64
	removed uint64
}

// keyLog is one relation's recent-writer log: tuple hash → stamp of the last
// committed change.  Entries at or below pruned may have been discarded
// (they predate every live snapshot, or fell to the hard cap); a validator
// whose snapshot is older than pruned cannot trust the log and falls back to
// the relation-granular version check.
type keyLog struct {
	keys   map[uint64]keyStamp
	pruned uint64
	// rearm is the size at which the commit path prunes next: twice what the
	// last pass left behind (see due); passes counts the passes run.
	rearm  int
	passes int
}

// due reports whether the log has grown enough since its last prune pass to
// be worth walking again under the storage lock.
func (l *keyLog) due() bool {
	return len(l.keys) >= max(l.rearm, keyLogPruneThreshold)
}

// prune discards entries at or below floor — versions no live snapshot can
// conflict with — and enforces the hard cap by evicting the older half of an
// oversized log, raising pruned so affected validators degrade to the
// conservative relation-version check instead of missing a conflict.
func (l *keyLog) prune(floor uint64) {
	l.passes++
	// Re-arm from the size this pass leaves, never beyond the hard cap.
	defer func() { l.rearm = min(2*len(l.keys), keyLogMaxEntries+1) }()
	for h, st := range l.keys {
		if st.version <= floor {
			delete(l.keys, h)
		}
	}
	if floor > l.pruned {
		l.pruned = floor
	}
	if len(l.keys) <= keyLogMaxEntries {
		return
	}
	versions := make([]uint64, 0, len(l.keys))
	for _, st := range l.keys {
		versions = append(versions, st.version)
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] < versions[j] })
	cut := versions[len(versions)/2]
	for h, st := range l.keys {
		if st.version <= cut {
			delete(l.keys, h)
		}
	}
	if cut > l.pruned {
		l.pruned = cut
	}
}

// snapshotFloor returns the change-clock version below which no live snapshot
// exists: the oldest registered snapshot's version, or the current version
// when none is live.  Key-log entries at or below the floor can never be the
// deciding conflict for any transaction still able to commit.
func (d *Database) snapshotFloor() uint64 {
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	floor := d.version
	for v := range d.liveSnaps {
		if v < floor {
			floor = v
		}
	}
	return floor
}

// PruneKeyLogs floor-prunes every relation's recent-writer key log against
// the oldest live snapshot.  Pruning also runs automatically when a log
// crosses its size threshold during commit; the explicit hook exists for
// tests and long-lived processes that want to reclaim log memory eagerly.
func (d *Database) PruneKeyLogs() {
	d.mu.Lock()
	defer d.mu.Unlock()
	floor := d.snapshotFloor()
	for _, log := range d.keylogs {
		log.prune(floor)
	}
}

// KeyLogStats reports the named relation's key-log size and pruned floor
// (zeros when the relation has no log).  It exists for tests asserting the
// pruning lifecycle.
func (d *Database) KeyLogStats(name string) (entries int, pruned uint64) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	log, ok := d.keylogs[strings.ToLower(name)]
	if !ok {
		return 0, 0
	}
	return len(log.keys), log.pruned
}

// validateDeltaLocked checks one relation's delta write set against the
// recent-writer state under the held database lock.  A wholesale replacement
// (Apply, DDL) after since conflicts unconditionally; otherwise removed keys
// conflict with any later touch, and added keys only with a later removal —
// concurrent additions of the same key are commuting bag unions and merge.
func (d *Database) validateDeltaLocked(since uint64, name string, delta Delta) error {
	key := strings.ToLower(name)
	if v := d.wholesale[key]; v > since {
		return fmt.Errorf("%w: relation %q replaced wholesale at version %d after snapshot version %d",
			ErrVersionConflict, name, v, since)
	}
	log, ok := d.keylogs[key]
	if !ok {
		return nil
	}
	if since < log.pruned {
		// The log no longer covers this snapshot's horizon: degrade to the
		// conservative relation-granular check rather than miss a conflict.
		if v := d.versions[key]; v > since {
			return fmt.Errorf("%w: relation %q changed at version %d after snapshot version %d (key log pruned to %d)",
				ErrVersionConflict, name, v, since, log.pruned)
		}
		return nil
	}
	var conflict error
	if delta.Remove != nil {
		delta.Remove.EachHash(func(t tuple.Tuple, h uint64, _ uint64) bool {
			if st := log.keys[h]; st.version > since {
				conflict = fmt.Errorf("%w: relation %q key %v changed at version %d after snapshot version %d",
					ErrVersionConflict, name, t, st.version, since)
				return false
			}
			return true
		})
		if conflict != nil {
			return conflict
		}
	}
	if delta.Add != nil {
		delta.Add.EachHash(func(t tuple.Tuple, h uint64, _ uint64) bool {
			if st := log.keys[h]; st.removed > since {
				conflict = fmt.Errorf("%w: relation %q key %v removed at version %d after snapshot version %d",
					ErrVersionConflict, name, t, st.removed, since)
				return false
			}
			return true
		})
	}
	return conflict
}

// validateReadLocked checks a serializable transaction's observed key set of
// one relation under the held database lock: the commit conflicts when any
// key the snapshot instance contained was touched after since (or the
// relation was replaced wholesale).  Tuples committed under fresh keys are
// phantoms this validation deliberately does not see — see the package
// comment of txn for the isolation contract.
func (d *Database) validateReadLocked(since uint64, name string, observed *multiset.Relation) error {
	key := strings.ToLower(name)
	if v := d.wholesale[key]; v > since {
		return fmt.Errorf("%w: relation %q replaced wholesale at version %d after snapshot version %d (read set)",
			ErrVersionConflict, name, v, since)
	}
	log, ok := d.keylogs[key]
	if !ok {
		return nil
	}
	if since < log.pruned {
		if v := d.versions[key]; v > since {
			return fmt.Errorf("%w: relation %q changed at version %d after snapshot version %d (read set, key log pruned to %d)",
				ErrVersionConflict, name, v, since, log.pruned)
		}
		return nil
	}
	var conflict error
	if observed.DistinctCount() <= len(log.keys) {
		observed.EachHash(func(t tuple.Tuple, h uint64, _ uint64) bool {
			if st := log.keys[h]; st.version > since {
				conflict = fmt.Errorf("%w: relation %q key %v read at snapshot version %d changed at version %d",
					ErrVersionConflict, name, t, since, st.version)
				return false
			}
			return true
		})
	} else {
		for h, st := range log.keys {
			if st.version > since && observed.ContainsHash(h) {
				conflict = fmt.Errorf("%w: relation %q key read at snapshot version %d changed at version %d",
					ErrVersionConflict, name, since, st.version)
				break
			}
		}
	}
	return conflict
}

// ValidateReads runs key-granular read-set validation without installing
// anything: for every relation name → observed snapshot instance, it checks
// that no key the instance contained changed after version since.
// Serializable read-only transactions use it at commit.
func (d *Database) ValidateReads(since uint64, reads map[string]*multiset.Relation) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for name, observed := range reads {
		if err := d.validateReadLocked(since, name, observed); err != nil {
			return err
		}
	}
	return nil
}

// ApplyDeltas is the key-granular first-committer-wins commit: under one
// acquisition of the storage lock it validates every relation's delta write
// set against the recent-writer key log (and, when reads is non-nil, the
// serializable read sets against observed keys), then merge-installs the
// deltas onto the live instances, advances the change clock and logical
// time, stamps the touched keys, and prunes oversized logs below the oldest
// live snapshot.  Writers whose deltas touch disjoint keys — or that only
// add occurrences other writers also only add — therefore commit
// concurrently where relation-granular validation would have aborted all but
// one.  On any validation error nothing is installed and the error wraps
// ErrVersionConflict.
func (d *Database) ApplyDeltas(since uint64, writes map[string]Delta, reads map[string]*multiset.Relation) (Transition, error) {
	d.mu.Lock()
	defer d.mu.Unlock()

	type keyedDelta struct {
		key string
		Delta
	}
	deltas := make([]keyedDelta, 0, len(writes))
	for name, delta := range writes {
		key := strings.ToLower(name)
		cur, ok := d.relations[key]
		if !ok {
			return Transition{}, fmt.Errorf("%w: %q", ErrNoSuchRelation, name)
		}
		// Conflict-validate before the schema check: a relation dropped and
		// re-created under a new schema should read as a conflict, not as a
		// schema error.
		if err := d.validateDeltaLocked(since, name, delta); err != nil {
			return Transition{}, err
		}
		for _, side := range []*multiset.Relation{delta.Add, delta.Remove} {
			if side != nil && !side.IsEmpty() && !cur.Schema().Compatible(side.Schema()) {
				return Transition{}, fmt.Errorf("%w: relation %q expects %s, got %s",
					ErrSchemaMismatch, name, cur.Schema(), side.Schema())
			}
		}
		deltas = append(deltas, keyedDelta{key, delta})
	}
	for name, observed := range reads {
		if err := d.validateReadLocked(since, name, observed); err != nil {
			return Transition{}, err
		}
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].key < deltas[j].key })

	v := d.version + 1
	changed := make([]string, 0, len(deltas))
	for _, delta := range deltas {
		if delta.Empty() {
			continue
		}
		key := delta.key
		d.relations[key].ApplyDelta(delta.Add, delta.Remove)
		if st, ok := d.stats[key]; ok {
			// Maintain statistics incrementally from the same delta stream,
			// copy-on-update: snapshots holding the old *stats.Table keep a
			// consistent view of their own version.
			d.stats[key] = st.ApplyDelta(delta.Add, delta.Remove).WithVersion(v)
		}
		log, ok := d.keylogs[key]
		if !ok {
			log = &keyLog{keys: make(map[uint64]keyStamp)}
			d.keylogs[key] = log
		}
		if delta.Remove != nil {
			delta.Remove.EachHash(func(_ tuple.Tuple, h uint64, _ uint64) bool {
				log.keys[h] = keyStamp{version: v, removed: v}
				return true
			})
		}
		if delta.Add != nil {
			delta.Add.EachHash(func(_ tuple.Tuple, h uint64, _ uint64) bool {
				st := log.keys[h]
				st.version = v
				log.keys[h] = st
				return true
			})
		}
		d.versions[key] = v
		changed = append(changed, d.relations[key].Schema().Name())
		if log.due() {
			log.prune(d.snapshotFloor())
		}
	}
	if len(changed) == 0 {
		// Every delta was empty: the transaction was effectively read-only.
		return Transition{From: d.logicalTime, To: d.logicalTime}, nil
	}
	d.version = v
	tr := Transition{From: d.logicalTime, To: d.logicalTime + 1, Changed: changed}
	d.logicalTime++
	d.record(tr)
	return tr, nil
}
