// Package storage implements the in-memory multi-set relational database
// engine: named relation instances, database states with logical time, and
// single-step database transitions (Definitions 2.5 and 2.6 of Grefen & de By,
// ICDE 1994).
//
// The engine plays the role PRISMA/DB plays in the paper: a concrete store the
// extended relational algebra manipulates.  It is deliberately main-memory and
// single-node; transactions (package txn) provide atomicity and isolation on
// top of the copy-on-write snapshots exposed here.
package storage

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"mra/internal/multiset"
	"mra/internal/schema"
	"mra/internal/stats"
)

// Common storage errors.
var (
	// ErrNoSuchRelation is returned when a named relation does not exist.
	ErrNoSuchRelation = errors.New("storage: no such relation")
	// ErrRelationExists is returned when creating a relation that already exists.
	ErrRelationExists = errors.New("storage: relation already exists")
	// ErrSchemaMismatch is returned when installing an instance whose schema is
	// incompatible with the declared relation schema.
	ErrSchemaMismatch = errors.New("storage: schema mismatch")
)

// Transition records a single-step database transition (D_t1, D_t2)
// (Definition 2.6): the logical times of the two states and the names of the
// relations that changed between them.
type Transition struct {
	// From and To are the logical times t1 < t2 of the two database states.
	From, To uint64
	// Changed lists the names of relations replaced by the transition.
	Changed []string
}

// String renders the transition as "t1 -> t2 [r1 r2 ...]".
func (t Transition) String() string {
	return fmt.Sprintf("%d -> %d %v", t.From, t.To, t.Changed)
}

// Database is an in-memory database instance: a database schema plus one
// relation instance per relation schema, stamped with a logical time.
// All methods are safe for concurrent use.
type Database struct {
	mu          sync.RWMutex
	schema      *schema.Database
	relations   map[string]*multiset.Relation
	logicalTime uint64
	// history holds the most recent transitions, at least historyLimit of
	// them once that many were recorded and never 2·historyLimit (see record).
	history []Transition
	// version is the database change clock: it advances on every committed
	// Apply/ApplyDeltas and on every DDL operation, and versions records, per
	// relation, the clock value of its last change.  Snapshots capture the
	// clock and commit validation compares key stamps against it.
	version  uint64
	versions map[string]uint64
	// keylogs holds each relation's recent-writer key log (tuple hash →
	// keyStamp) for key-granular conflict validation, and wholesale records
	// the clock value of each relation's last full replacement (Apply, DDL) —
	// changes no key log can describe, so they conflict with every concurrent
	// transaction of the relation.
	keylogs   map[string]*keyLog
	wholesale map[string]uint64
	// stats holds the per-relation optimizer statistics built by Analyze and
	// maintained incrementally (copy-on-update) by ApplyDeltas, so snapshots
	// can capture the map's *stats.Table pointers without locks.  Wholesale
	// replacements (Apply, DDL) invalidate a relation's entry: no delta
	// stream describes them.
	stats map[string]*stats.Table
	// snapMu guards liveSnaps, the refcounts of live (unreleased) snapshots
	// by version: key logs are only pruned below the oldest live snapshot so
	// an in-flight transaction can always validate its deltas key by key.
	// Lock order is d.mu before snapMu; Release takes snapMu alone.
	snapMu    sync.Mutex
	liveSnaps map[uint64]int
}

// NewDatabase returns an empty database (no relations) at logical time 0.
func NewDatabase() *Database {
	s, _ := schema.NewDatabase()
	return &Database{
		schema:    s,
		relations: make(map[string]*multiset.Relation),
		versions:  make(map[string]uint64),
		keylogs:   make(map[string]*keyLog),
		wholesale: make(map[string]uint64),
		stats:     make(map[string]*stats.Table),
		liveSnaps: make(map[uint64]int),
	}
}

// CreateRelation declares a new, empty relation with the given schema.  The
// schema must carry a relation name.
func (d *Database) CreateRelation(rel schema.Relation) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	key := strings.ToLower(rel.Name())
	if key == "" {
		return fmt.Errorf("%w: relation schema must be named", ErrSchemaMismatch)
	}
	if _, exists := d.relations[key]; exists {
		return fmt.Errorf("%w: %q", ErrRelationExists, rel.Name())
	}
	if err := d.schema.Add(rel); err != nil {
		return err
	}
	d.relations[key] = multiset.New(rel)
	d.version++
	d.versions[key] = d.version
	d.wholesale[key] = d.version
	delete(d.keylogs, key)
	delete(d.stats, key)
	return nil
}

// DropRelation removes a relation and its instance.
func (d *Database) DropRelation(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	key := strings.ToLower(name)
	if _, exists := d.relations[key]; !exists {
		return fmt.Errorf("%w: %q", ErrNoSuchRelation, name)
	}
	delete(d.relations, key)
	d.schema.Remove(name)
	// Stamp the name so a transaction that snapshotted the dropped relation
	// conflicts instead of resurrecting it over a later re-creation.
	d.version++
	d.versions[key] = d.version
	d.wholesale[key] = d.version
	delete(d.keylogs, key)
	delete(d.stats, key)
	return nil
}

// Relation returns a snapshot (clone) of the named relation instance, so
// callers can read it without holding the database lock and without observing
// later writes.
func (d *Database) Relation(name string) (*multiset.Relation, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	r, ok := d.relations[strings.ToLower(name)]
	if !ok {
		return nil, false
	}
	return r.Clone(), true
}

// RelationSchema implements algebra.Catalog.
func (d *Database) RelationSchema(name string) (schema.Relation, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	r, ok := d.relations[strings.ToLower(name)]
	if !ok {
		return schema.Relation{}, false
	}
	return r.Schema(), true
}

// Names returns the names of all relations, sorted.
func (d *Database) Names() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	names := make([]string, 0, len(d.relations))
	for _, r := range d.relations {
		names = append(names, r.Schema().Name())
	}
	sort.Strings(names)
	return names
}

// LogicalTime returns the database's current logical time t.
func (d *Database) LogicalTime() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.logicalTime
}

// historyLimit is how many of the most recent transitions History retains.
const historyLimit = 4096

// History returns the recorded single-step transitions, oldest first: all of
// them up to historyLimit, beyond that the most recent historyLimit — a
// contiguous suffix ending at the current logical time.  (A served database
// commits thousands of transitions a second; LogicalTime counts them all.)
func (d *Database) History() []Transition {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return slices.Clone(d.history[max(0, len(d.history)-historyLimit):])
}

// record appends a transition to the bounded history under the held write
// lock, dropping the older half of the buffer each time it fills: amortised
// O(1) per commit.
func (d *Database) record(tr Transition) {
	if len(d.history) == 2*historyLimit {
		d.history = append(d.history[:0], d.history[historyLimit:]...)
	}
	d.history = append(d.history, tr)
}

// Cardinality returns the total tuple count of the named relation (0 if the
// relation does not exist).
func (d *Database) Cardinality(name string) uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	r, ok := d.relations[strings.ToLower(name)]
	if !ok {
		return 0
	}
	return r.Cardinality()
}

// Apply atomically installs new instances for the named relations and advances
// the logical time by one, recording the transition.  Every target relation
// must exist and every instance must be union-compatible with the declared
// schema; on any error nothing is installed (the database state is unchanged).
// It returns the recorded transition.
func (d *Database) Apply(changes map[string]*multiset.Relation) (Transition, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.applyLocked(changes)
}

// applyLocked installs new relation instances under an already-held write
// lock; see Apply for the semantics.
func (d *Database) applyLocked(changes map[string]*multiset.Relation) (Transition, error) {
	// Validate first so the installation below cannot fail halfway.
	type keyedInstance struct {
		key  string
		inst *multiset.Relation
	}
	insts := make([]keyedInstance, 0, len(changes))
	for name, inst := range changes {
		key := strings.ToLower(name)
		cur, ok := d.relations[key]
		if !ok {
			return Transition{}, fmt.Errorf("%w: %q", ErrNoSuchRelation, name)
		}
		if !cur.Schema().Compatible(inst.Schema()) {
			return Transition{}, fmt.Errorf("%w: relation %q expects %s, got %s",
				ErrSchemaMismatch, name, cur.Schema(), inst.Schema())
		}
		insts = append(insts, keyedInstance{key, inst})
	}
	sort.Slice(insts, func(i, j int) bool { return insts[i].key < insts[j].key })

	changed := make([]string, 0, len(insts))
	for _, in := range insts {
		declared := d.relations[in.key].Schema()
		// Re-type the instance with the declared schema so attribute names and
		// the relation name survive statement-level rebuilds.
		d.relations[in.key] = in.inst.Clone().WithSchema(declared)
		changed = append(changed, declared.Name())
	}
	tr := Transition{From: d.logicalTime, To: d.logicalTime + 1, Changed: changed}
	d.logicalTime++
	d.version++
	for _, in := range insts {
		key := in.key
		d.versions[key] = d.version
		// A full replacement invalidates the per-key history: stamp it
		// wholesale and drop the log so key-granular validators conflict.
		// Statistics go the same way — no delta stream describes the change.
		d.wholesale[key] = d.version
		delete(d.keylogs, key)
		delete(d.stats, key)
	}
	d.record(tr)
	return tr, nil
}
