package storage

import (
	"errors"
	"sort"
	"strings"
	"sync/atomic"

	"mra/internal/multiset"
	"mra/internal/stats"
)

// ErrVersionConflict is returned by ApplyDeltas and ValidateReads when a
// validated key (or, for wholesale replacements, a whole relation) changed
// after the snapshot version the caller read it at.  The transaction layer
// maps it onto txn.ErrConflict (first-committer-wins).
var ErrVersionConflict = errors.New("storage: relation changed since snapshot")

// Snapshot is an immutable, point-in-time view of a database state D_t: one
// copy-on-write clone per relation plus the version clock the state was read
// at.  Taking a snapshot costs O(relations) pointer copies — tuple data is
// shared with the live database until either side mutates — so transactions
// can snapshot on every Begin.  A Snapshot is safe for concurrent readers.
//
// Every snapshot is registered live with its database until Release is
// called: the recent-writer key logs are pruned only below the oldest live
// snapshot, so a transaction holding one can always validate its deltas key
// by key.  Callers that let a snapshot leak unreleased merely keep its
// refcount pinned; validation then degrades gracefully once the hard cap
// forces eviction.
type Snapshot struct {
	db       *Database
	rels     map[string]*multiset.Relation
	stats    map[string]*stats.Table
	version  uint64
	released atomic.Bool
}

// Release marks the snapshot no longer live, allowing key-log entries at or
// below its version to be pruned.  It is idempotent and safe to call
// concurrently; using the snapshot's relation instances after Release is
// still safe (they are immutable COW clones) — only conflict validation
// against its version loses key granularity.
func (s *Snapshot) Release() {
	if s == nil || s.db == nil || s.released.Swap(true) {
		return
	}
	s.db.snapMu.Lock()
	defer s.db.snapMu.Unlock()
	if n := s.db.liveSnaps[s.version]; n <= 1 {
		delete(s.db.liveSnaps, s.version)
	} else {
		s.db.liveSnaps[s.version] = n - 1
	}
}

// Relation returns the snapshotted instance of the named relation.  The
// returned relation is the snapshot's own COW clone: callers must treat it as
// read-only (mutating it would poison every other reader of the snapshot).
func (s *Snapshot) Relation(name string) (*multiset.Relation, bool) {
	r, ok := s.rels[strings.ToLower(name)]
	return r, ok
}

// Names returns the names of all snapshotted relations, sorted.
func (s *Snapshot) Names() []string {
	names := make([]string, 0, len(s.rels))
	for _, r := range s.rels {
		names = append(names, r.Schema().Name())
	}
	sort.Strings(names)
	return names
}

// Version returns the database change-clock value the snapshot was taken at;
// ApplyDeltas validates key stamps against it.
func (s *Snapshot) Version() uint64 { return s.version }

// TableStats returns the named relation's summary as of the snapshot:
// transactions plan against the statistics of the version they read, not
// whatever the live database has moved on to.
func (s *Snapshot) TableStats(name string) (*stats.Table, bool) {
	t, ok := s.stats[strings.ToLower(name)]
	return t, ok
}

// Snapshot captures the current database state as an immutable point-in-time
// view.  The capture runs under the read lock only long enough to clone each
// relation (O(1) per relation, copy-on-write), so writers are blocked for
// microseconds regardless of data volume, and readers of the snapshot never
// touch the database lock again.
func (d *Database) Snapshot() *Snapshot {
	d.mu.RLock()
	defer d.mu.RUnlock()
	rels := make(map[string]*multiset.Relation, len(d.relations))
	for key, r := range d.relations {
		rels[key] = r.Clone()
	}
	// Statistics tables are immutable (ApplyDeltas replaces, never mutates),
	// so capturing the pointers gives the snapshot a consistent stats view of
	// its own version for free.
	var st map[string]*stats.Table
	if len(d.stats) > 0 {
		st = make(map[string]*stats.Table, len(d.stats))
		for key, t := range d.stats {
			st[key] = t
		}
	}
	// Register the snapshot live while still holding the read lock, so no
	// committer can prune the key logs past this version before the snapshot
	// becomes visible.  Lock order d.mu → snapMu matches snapshotFloor.
	d.snapMu.Lock()
	d.liveSnaps[d.version]++
	d.snapMu.Unlock()
	return &Snapshot{db: d, rels: rels, stats: st, version: d.version}
}
