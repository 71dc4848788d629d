package storage

import (
	"fmt"
	"strings"

	"mra/internal/stats"
)

// Analyze rebuilds optimizer statistics for the named relation from its
// current instance, stamps them with the current database version, installs
// them, and returns them.  It also installs the key column the statistics
// choose (stats.Table.KeyColumn) on the live instance, which costs one copy
// of its pages and changes neither its bag nor the version: snapshots taken
// before keep the instance they hold.  From then on ApplyDeltas maintains
// the summary incrementally and the key chain with the instance; wholesale
// replacements (Apply, DDL) drop both again.
func (d *Database) Analyze(name string) (*stats.Table, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := d.relations[key]; !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchRelation, name)
	}
	return d.analyzeLocked(key), nil
}

// AnalyzeAll rebuilds statistics and key columns for every relation (ANALYZE
// with no argument).
func (d *Database) AnalyzeAll() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for key := range d.relations {
		d.analyzeLocked(key)
	}
	return nil
}

// analyzeLocked analyzes one existing relation under the held write lock.
func (d *Database) analyzeLocked(key string) *stats.Table {
	r := d.relations[key]
	t := stats.Analyze(r, d.version)
	d.stats[key] = t
	d.relations[key] = r.WithKey(t.KeyColumn())
	return t
}

// TableStats returns the named relation's statistics summary, or false when
// the relation was never analyzed (or its statistics were invalidated by a
// wholesale replacement).
func (d *Database) TableStats(name string) (*stats.Table, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, ok := d.stats[strings.ToLower(name)]
	return t, ok
}
