package multiset

import "mra/internal/tuple"

// Diff computes the delta that turns base into next as a pair of multisets,
// so that next = (base ∸ remove) ⊎ add, spelling included: add holds every
// occurrence present in next beyond its multiplicity in base, remove every
// occurrence of base missing from next.  A tuple both sides hold under
// different spellings (tuple.Identical fails: an int against an equal float,
// +0 against −0, two NaN payloads) is removed with all of base's occurrences
// and added with all of next's, so the result reads as next does; every
// other tuple moves in one direction only, and both multisets are empty when
// the relations are identical.
//
// Diff is sharing-aware: arena pages the two tables share are skipped and
// only the entries on unshared pages are probed in the other table.  That is
// exact for any two relations (a tuple whose multiplicity or spelling
// differs sits on an unshared page of each table that holds it) and costs
// O(pages) pointer comparisons plus O(entries on unshared pages) probes:
// O(touched pages) when next descends from base by a few writes — the commit
// of a small transaction — O(1) when they share one table, and the former
// O(|base| + |next|) only for relations with no common ancestry or across a
// compaction.  Cached entry hashes are reused throughout; no tuple is ever
// re-hashed, and a tuple both sides share by pointer is never compared value
// by value.
func Diff(base, next *Relation) (add, remove *Relation) {
	add = New(next.schema)
	remove = New(base.schema)
	bt, nt := base.tab, next.tab
	if bt == nt {
		return add, remove
	}
	for e := range nt.entries(bt) {
		if old := bt.held(e); e.count > old {
			add.tab.add(e.hash, probe{tup: e.tup}, e.count-old)
		}
	}
	for e := range bt.entries(nt) {
		if cur := nt.held(e); e.count > cur {
			remove.tab.add(e.hash, probe{tup: e.tup}, e.count-cur)
		}
	}
	return add, remove
}

// held returns the multiplicity t holds for e's tuple spelled as e spells
// it: zero when t holds it under another spelling, which Diff then moves
// whole.
func (t *table) held(e *entry) uint64 {
	if i := t.find(e.hash, &probe{tup: e.tup}); i >= 0 {
		if o := t.at(i); o.tup.Identical(e.tup) {
			return o.count
		}
	}
	return 0
}

// ApplyDelta applies a Diff-shaped delta in place: every occurrence of remove
// is removed first (monus — multiplicities clamp at zero), then every
// occurrence of add is added, so r becomes (r ∸ remove) ⊎ add.  It is the
// one bulk change of a relation instance: statements apply Definition 4.1's
// (add, remove) pair with it, and commit installs deltas with it.  Applied
// to the relation the delta was diffed from, it reproduces the diffed target
// exactly; applied to a relation other writers advanced on disjoint keys, it
// merges — which is what makes delta write sets over disjoint keys commute
// under the storage engine's key-granular commit validation.  Either
// argument may be nil.  Cached entry hashes are reused, so no tuple is
// re-hashed, and the cost is the pages the delta's tuples land on, however
// large r is.
func (r *Relation) ApplyDelta(add, remove *Relation) {
	if (add == nil || add.tab.total == 0) && (remove == nil || remove.tab.total == 0) {
		return
	}
	r.materialize()
	tab := r.tab
	if remove != nil {
		for e := range remove.tab.entries(nil) {
			tab.remove(e.hash, e.tup, e.count)
		}
	}
	if add != nil {
		for e := range add.tab.entries(nil) {
			tab.add(e.hash, probe{tup: e.tup}, e.count)
		}
	}
	tab.compact()
}

// EachHash calls fn once per distinct tuple with its cached hash and
// multiplicity — the key-granular view of the relation the transaction
// layer's write-set validation iterates.  If fn returns false, iteration
// stops.  fn must not mutate r.
func (r *Relation) EachHash(fn func(t tuple.Tuple, hash uint64, count uint64) bool) {
	for e := range r.tab.entries(nil) {
		if !fn(e.tup, e.hash, e.count) {
			return
		}
	}
}

// ContainsHash reports whether the relation holds any live tuple whose cached
// hash equals h.  It is the O(1) membership probe key-granular read
// validation uses to intersect a recent-writer key log with the key set a
// snapshot reader observed.
func (r *Relation) ContainsHash(h uint64) bool {
	tab := r.tab
	for l := tab.head(tab.heads, h); l != 0; {
		e := tab.at(l - 1)
		if e.hash == h && e.count > 0 {
			return true
		}
		l = e.next
	}
	return false
}
