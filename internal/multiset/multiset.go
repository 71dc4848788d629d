// Package multiset implements multi-set relations: relation instances that
// map each tuple of the relation's domain to a natural-number multiplicity
// (Definition 2.2 of Grefen & de By, ICDE 1994).
//
// A Relation R of schema 𝓡 is a function R : dom(𝓡) → ℕ; the value R(x) is
// the multiplicity of x in R, and x ∈ R ⇔ R(x) > 0.  The representation never
// reports zero-multiplicity entries, so membership is structural.
//
// # Physical format: page-granular copy-on-write
//
// A relation is a chained hash table cut into fixed-size pages.  The entry
// arena — one entry per distinct tuple ever stored, holding the tuple, its
// cached tuple.Hash(), its multiplicity and the link to the next entry of its
// bucket — is a directory of pages of 1<<pageBits entries; every page but the
// last is full, so arena position i lives at pages[i>>pageBits][i&mask].  The
// hash index is a directory of pages of bucket heads (a power-of-two number
// of buckets, at least one per arena entry); collision chains run through the
// arena and compare Tuple.Equal — no canonical string key is ever built.
//
// Every table has an owner identity, and every page records the identity of
// the table that allocated it.  The protocol is one rule: a table writes a
// page only if it owns it; any other page is first copied and the copy owned.
// Clone and WithSchema share the whole table in O(1) and mark both views
// copy-on-write; the first mutation of such a view copies the two page
// directories — O(pages), a few hundred bytes per thousand tuples — and takes
// a fresh owner identity, so every page that existed when the views parted is
// from then on read-only to everyone, for ever.  A write then costs the pages
// it lands on: the entry's page for a multiplicity change; the tail page and
// one bucket page for a new tuple.  A transaction that changes four rows of
// a large relation therefore copies a handful of pages, not the relation,
// although each statement writes a clone of R: the statement applies
// Definition 4.1's (add, remove) pair to it with ApplyDelta — update's pair
// is (π_a(R ∩ E), R ∩ E) — and the saving lives here.
//
// Because shared pages are pointer-identical, Diff, Equal and SubsetOf skip
// them and probe only the entries on pages the two tables do not share —
// exact for any two tables, O(touched pages) when one descends from the
// other.  Diff also sees spelling: an equal tuple stored as 2^53 on one side
// and 2^53.0 on the other moves whole, so a committed delta installs the
// tuples the transaction read.
//
// EachBatch is the one scan iterator: it fills batches straight off the
// arena pages of an entry range, [0, EntrySpan()) for the whole relation or
// one morsel of it for a gang worker.
//
// Remove leaves a tombstone (multiplicity zero, revived in place, holding
// the returning tuple, if an equal one is added).  When the tombstones of a
// privately owned table outnumber its live entries the table is rebuilt
// dense, a cost amortised against the removals that made them; the same
// rebuild doubles the bucket directory when the arena outgrows it.  A
// rebuild allocates new pages and touches only the directories of the table
// being mutated, which no other view can reach, so it can never move
// entries under a concurrent scan: a scanner holds a view whose directories
// and pages nobody writes.
//
// A relation may also have a key column: ANALYZE chooses one (package
// stats), and WithKey installs it.  A keyed table keeps a second bucket
// directory, hashed on the key column's value alone, whose chains run
// through the same arena entries (entry.knext).  Both chains are maintained
// by the one insertion path (push, which rebuild also uses), and a tombstone
// stays on both chains until a rebuild drops it, so Remove and revival never
// touch a chain; fork copies both directories, and the key directory's
// pages follow the same owner rule.  Every operator that clones, differs,
// merges or applies a delta therefore carries the key chain with no code of
// its own.  EachKey walks one key chain: a point lookup costs the entries
// whose key hashes alike, not the relation.
//
// pageBits is the one tuning constant.  internal/multiset/bench_test.go
// chose it: smaller pages make a small write cheaper (less copied per touched
// page), larger ones make the directory copy and the page loop of a scan
// cheaper; see the table in ARCHITECTURE.md.
package multiset

import (
	"fmt"
	"iter"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"mra/internal/schema"
	"mra/internal/tuple"
	"mra/internal/value"
)

const (
	// pageBits is log2 of the entries per arena page: 64 entries, 3 KiB.
	pageBits = 6
	// headShift makes a bucket page hold 1<<headShift times as many heads
	// as an arena page holds entries, so both kinds of page have about the
	// same byte size (an entry is 48 bytes, a head 4).
	headShift = 3
	// minBuckets is the smallest bucket directory.
	minBuckets = 8
	// compactMinDead keeps tables with a handful of tombstones from being
	// rebuilt over and over; it also bounds the arena span of a relation under
	// update traffic at 2·live + compactMinDead.
	compactMinDead = 32
	// hashMix spreads tuple.Hash() over the high bits the bucket number is
	// taken from (Fibonacci hashing).
	hashMix = 0x9E3779B97F4A7C15
)

// ownerSeq issues table owner identities; zero is never issued.
var ownerSeq atomic.Uint64

// entry is one slot of the arena: a representative tuple, its cached hash,
// its multiplicity, the link to the next entry of its bucket and, in a keyed
// table, the link to the next entry of its key bucket.  A link is an arena
// position plus one, zero ending the chain, so a freshly allocated bucket
// page is already empty.  An entry whose count is zero is a tombstone left
// behind by Remove; it is skipped by iteration and revived in place, taking
// the added tuple, if an equal tuple is added.  The key link fills what was
// padding: an entry is 48 bytes with or without it.
type entry struct {
	tup   tuple.Tuple
	hash  uint64
	count uint64
	next  int32
	knext int32
}

// entryPage is one page of the arena and headPage one page of bucket heads;
// owner is the identity of the table that allocated the page, the only table
// that may write it.
type entryPage struct {
	ents  []entry
	owner uint64
}

type headPage struct {
	heads []int32
	owner uint64
}

// table is the physical representation shared copy-on-write between relation
// views; see the package comment for the page and owner protocol.
type table struct {
	pages []entryPage
	heads []headPage
	// kheads is the key bucket directory, as many buckets as heads; nil when
	// keyCol is negative.
	kheads []headPage
	owner  uint64
	// keyCol is the column the key chains hash, or -1 for an unkeyed table.
	keyCol int
	// n is the arena span (live entries and tombstones), live the number of
	// entries with a non-zero count, total the sum of the counts.
	n     int
	live  int
	total uint64
	// buckets is the size of the bucket directory (a power of two, or zero
	// before the first insert) and shift takes a mixed hash to its bucket.
	buckets int
	shift   uint8
	// pageBits is the constant of the same name; it is a field only so the
	// tests can build tables whose page boundaries are crossed constantly.
	pageBits uint8
}

func newTable(capacity int, pageBits uint8) *table {
	t := &table{owner: ownerSeq.Add(1), keyCol: -1, pageBits: pageBits}
	if capacity > 0 {
		t.allocIndex(capacity)
	}
	return t
}

// allocIndex gives the table an empty bucket directory of at least capacity
// buckets, and an empty key directory of as many when the table is keyed.
func (t *table) allocIndex(capacity int) {
	t.buckets = minBuckets
	for t.buckets < capacity {
		t.buckets <<= 1
	}
	t.shift = uint8(64 - bits.TrailingZeros(uint(t.buckets)))
	t.heads = t.newDirectory()
	t.kheads = nil
	if t.keyCol >= 0 {
		t.kheads = t.newDirectory()
	}
}

// newDirectory returns an empty bucket directory of t.buckets heads, in
// pages owned by t.
func (t *table) newDirectory() []headPage {
	per := min(t.buckets, 1<<(t.pageBits+headShift))
	dir := make([]headPage, t.buckets/per)
	for i := range dir {
		dir[i] = headPage{heads: make([]int32, per), owner: t.owner}
	}
	return dir
}

// fork returns a copy of the table under a fresh owner identity: the page
// directories are copied; the pages stay shared and, carrying another
// identity, read-only to the copy.
func (t *table) fork() *table {
	cp := *t
	cp.owner = ownerSeq.Add(1)
	cp.pages = slices.Clone(t.pages)
	cp.heads = slices.Clone(t.heads)
	cp.kheads = slices.Clone(t.kheads)
	return &cp
}

// at returns the entry at arena position i for reading.
func (t *table) at(i int32) *entry {
	return &t.pages[i>>t.pageBits].ents[i&(1<<t.pageBits-1)]
}

// own returns the entry at arena position i for writing, first copying its
// page if another table allocated it.
func (t *table) own(i int32) *entry {
	p := &t.pages[i>>t.pageBits]
	if p.owner != t.owner {
		p.ents, p.owner = slices.Clone(p.ents), t.owner
	}
	return &p.ents[i&(1<<t.pageBits-1)]
}

// head returns the first link of the bucket hash h falls in, in the bucket
// directory dir (t.heads or t.kheads).
func (t *table) head(dir []headPage, h uint64) int32 {
	if t.buckets == 0 {
		return 0
	}
	b := (h * hashMix) >> t.shift
	hb := t.pageBits + headShift
	return dir[b>>hb].heads[b&(1<<hb-1)]
}

// ownHead returns the head of h's bucket in dir for writing, first copying
// its page if another table allocated it.
func (t *table) ownHead(dir []headPage, h uint64) *int32 {
	b := (h * hashMix) >> t.shift
	hb := t.pageBits + headShift
	p := &dir[b>>hb]
	if p.owner != t.owner {
		p.heads, p.owner = slices.Clone(p.heads), t.owner
	}
	return &p.heads[b&(1<<hb-1)]
}

// probe is what a table lookup compares stored tuples against: a tuple or,
// when cols is non-nil, one row of the column vectors cols.  A row probe is
// compared value by value against the stored tuples and becomes a tuple
// only when it is stored (tuple), so a row equal to a stored tuple is
// counted without ever being built.
type probe struct {
	tup  tuple.Tuple
	cols []value.Vec
	row  int
}

// equal reports whether the probe denotes the stored tuple s.
func (p *probe) equal(s tuple.Tuple) bool {
	if p.cols == nil {
		return p.tup.Equal(s)
	}
	if s.Arity() != len(p.cols) {
		return false
	}
	for c, col := range p.cols {
		if !col[p.row].Equal(s.At(c)) {
			return false
		}
	}
	return true
}

// tuple returns the probe's tuple, building it from the column vectors when
// the probe is a row.
func (p *probe) tuple() tuple.Tuple {
	if p.cols == nil {
		return p.tup
	}
	vals := make([]value.Value, len(p.cols))
	for c, col := range p.cols {
		vals[c] = col[p.row]
	}
	return tuple.FromSlice(vals)
}

// find returns the arena position of the entry holding p's tuple (live or
// tombstoned), or -1 if the tuple has never been stored.
func (t *table) find(h uint64, p *probe) int32 {
	for l := t.head(t.heads, h); l != 0; {
		e := t.at(l - 1)
		if e.hash == h && p.equal(e.tup) {
			return l - 1
		}
		l = e.next
	}
	return -1
}

// count returns the multiplicity stored for tup, whose hash is h.
func (t *table) count(h uint64, tup tuple.Tuple) uint64 {
	if i := t.find(h, &probe{tup: tup}); i >= 0 {
		return t.at(i).count
	}
	return 0
}

// insert appends a new entry for a tuple known to be absent, growing the
// bucket directory first when the arena has filled it.
func (t *table) insert(h uint64, tup tuple.Tuple, n uint64) {
	if t.n >= t.buckets {
		t.rebuild()
	}
	t.push(h, tup, n)
}

// push puts a new entry at the end of the arena and at the front of its
// bucket's chain and, in a keyed table, of its key bucket's chain.
func (t *table) push(h uint64, tup tuple.Tuple, n uint64) {
	size := 1 << t.pageBits
	if t.n == len(t.pages)<<t.pageBits {
		// Every page is full (or there is none yet).  The first page starts
		// small: most relations of a query hold a few tuples.
		c := size
		if t.n == 0 {
			c = min(size, t.buckets)
		}
		t.pages = append(t.pages, entryPage{ents: make([]entry, 0, c), owner: t.owner})
	}
	p := &t.pages[len(t.pages)-1]
	if p.owner != t.owner || len(p.ents) == cap(p.ents) {
		grown := make([]entry, len(p.ents), min(size, 2*len(p.ents)+1))
		copy(grown, p.ents)
		p.ents, p.owner = grown, t.owner
	}
	head := t.ownHead(t.heads, h)
	e := entry{tup: tup, hash: h, count: n, next: *head}
	var khead *int32
	if t.keyCol >= 0 {
		khead = t.ownHead(t.kheads, tup.At(t.keyCol).Hash())
		e.knext = *khead
	}
	p.ents = append(p.ents, e)
	t.n++
	*head = int32(t.n)
	if khead != nil {
		*khead = int32(t.n)
	}
	t.live++
	t.total += n
}

// rebuild re-creates the table dense — tombstones dropped, every page freshly
// allocated and owned — with a bucket directory sized for twice its live
// entries.  It is both index growth and tombstone compaction.
func (t *table) rebuild() {
	old := *t
	t.pages, t.n, t.live, t.total = make([]entryPage, 0, old.live>>t.pageBits+1), 0, 0, 0
	t.allocIndex(2 * old.live)
	for e := range old.entries(nil) {
		t.push(e.hash, e.tup, e.count)
	}
}

// compact rebuilds the table once its tombstones outnumber its live entries.
// The rebuild costs O(live) and follows at least as many removals, so it is
// amortised O(1) per removal, and it keeps the arena span — what every scan,
// directory copy and Diff walks — proportional to the live size.
func (t *table) compact() {
	if dead := t.n - t.live; dead > t.live && dead >= compactMinDead {
		t.rebuild()
	}
}

// add increases the multiplicity of p's tuple (whose hash is h) by n,
// reviving a tombstoned entry in place or inserting a fresh one, the only
// point where a row probe becomes a tuple.  It is the one copy of the
// probe/resurrect/insert sequence shared by the scalar, batched, columnar and
// merge sinks; callers handle copy-on-write materialisation and n == 0
// skipping.
func (t *table) add(h uint64, p probe, n uint64) {
	if i := t.find(h, &p); i >= 0 {
		e := t.own(i)
		if e.count == 0 {
			// A tombstone holds no tuple: the revived entry takes the
			// probe's, which may spell a number in the other kind.
			e.tup = p.tuple()
			t.live++
		}
		e.count += n
		t.total += n
		return
	}
	t.insert(h, p.tuple(), n)
}

// remove decreases the multiplicity of tup (whose hash is h) by n, clamping
// at zero, and returns the number of occurrences removed.  Callers compact.
func (t *table) remove(h uint64, tup tuple.Tuple, n uint64) uint64 {
	i := t.find(h, &probe{tup: tup})
	if i < 0 || t.at(i).count == 0 {
		return 0
	}
	e := t.own(i)
	n = min(n, e.count)
	e.count -= n
	t.total -= n
	if e.count == 0 {
		t.live--
	}
	return n
}

// samePage reports whether two arena pages are one page shared by two tables.
func samePage(a, b []entry) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// entries iterates the live entries of t in arena order, leaving out every
// page t shares with skip (nil leaves out nothing).  It serves the write and
// comparison paths; the scan iterators (Each, EachBatch) spell the same
// loops out, which the compiler turns into tighter code.  A tuple has one arena
// position per table, so a tuple whose multiplicity differs between two
// tables is on an unshared page of each table that holds it: comparing t and
// skip entry by entry needs these entries only.
func (t *table) entries(skip *table) iter.Seq[*entry] {
	return func(yield func(*entry) bool) {
		for pi, pg := range t.pages {
			if skip != nil && pi < len(skip.pages) && samePage(pg.ents, skip.pages[pi].ents) {
				continue
			}
			for i := range pg.ents {
				if e := &pg.ents[i]; e.count > 0 && !yield(e) {
					return
				}
			}
		}
	}
}

// Relation is a multi-set relation instance.  The zero value is not usable;
// construct relations with New.  A Relation must not be copied by value.
type Relation struct {
	schema schema.Relation
	tab    *table
	// cow marks the table as shared with at least one other view (created by
	// Clone or WithSchema); the first mutation forks it.
	cow atomic.Bool
}

// New returns an empty relation instance of the given schema.
func New(s schema.Relation) *Relation { return NewWithCapacity(s, 0) }

// NewWithCapacity returns an empty relation pre-sized for about n distinct
// tuples, so bulk loads by the physical operators avoid rehash growth.
func NewWithCapacity(s schema.Relation, n int) *Relation {
	return &Relation{schema: s, tab: newTable(n, pageBits)}
}

// FromTuples builds a relation containing the given tuples, each with
// multiplicity one per occurrence (duplicates in the argument accumulate).
func FromTuples(s schema.Relation, tuples ...tuple.Tuple) *Relation {
	r := NewWithCapacity(s, len(tuples))
	for _, t := range tuples {
		r.Add(t, 1)
	}
	return r
}

// Schema returns the relation's schema.
func (r *Relation) Schema() schema.Relation { return r.schema }

// materialize gives the relation a table of its own before a mutation when
// the current one is shared with other copy-on-write views.  It copies the
// page directories only; pages are copied one by one as writes land on them.
func (r *Relation) materialize() {
	if !r.cow.Load() {
		return
	}
	r.tab = r.tab.fork()
	r.cow.Store(false)
}

// Multiplicity returns R(t), the number of occurrences of t in R.
func (r *Relation) Multiplicity(t tuple.Tuple) uint64 { return r.tab.count(t.Hash(), t) }

// Lookup returns R(t) together with the tuple R holds for t, which equals t
// but may spell a number in the other kind (2^53 where t has 2^53.0).  When
// R(t) = 0 it returns t itself.
func (r *Relation) Lookup(t tuple.Tuple) (tuple.Tuple, uint64) {
	tab := r.tab
	if i := tab.find(t.Hash(), &probe{tup: t}); i >= 0 {
		if e := tab.at(i); e.count > 0 {
			return e.tup, e.count
		}
	}
	return t, 0
}

// Contains reports t ∈ R, i.e. R(t) > 0.
func (r *Relation) Contains(t tuple.Tuple) bool { return r.Multiplicity(t) > 0 }

// Add increases the multiplicity of t by n.  Adding zero is a no-op.
func (r *Relation) Add(t tuple.Tuple, n uint64) {
	if n == 0 {
		return
	}
	r.materialize()
	r.tab.add(t.Hash(), probe{tup: t}, n)
}

// Remove decreases the multiplicity of t by n, clamping at zero ("monus", the
// semantics of the multi-set difference operator).  It returns the number of
// occurrences actually removed.
func (r *Relation) Remove(t tuple.Tuple, n uint64) uint64 {
	if n == 0 {
		return 0
	}
	r.materialize()
	removed := r.tab.remove(t.Hash(), t, n)
	r.tab.compact()
	return removed
}

// SetMultiplicity forces R(t) = n, inserting or deleting the entry as needed.
func (r *Relation) SetMultiplicity(t tuple.Tuple, n uint64) {
	r.materialize()
	tab := r.tab
	h := t.Hash()
	switch cur := tab.count(h, t); {
	case n > cur:
		tab.add(h, probe{tup: t}, n-cur)
	case n < cur:
		tab.remove(h, t, cur-n)
		tab.compact()
	}
}

// Cardinality returns |R| counting duplicates: Σ_x R(x).
func (r *Relation) Cardinality() uint64 { return r.tab.total }

// DistinctCount returns the number of distinct tuples with R(x) > 0.
func (r *Relation) DistinctCount() int { return r.tab.live }

// IsEmpty reports whether the relation contains no tuples.
func (r *Relation) IsEmpty() bool { return r.tab.total == 0 }

// Each calls fn once per distinct tuple with its multiplicity.  Iteration
// order is unspecified (relations are unordered collections).  If fn returns
// false, iteration stops.  fn must not mutate r.
func (r *Relation) Each(fn func(t tuple.Tuple, count uint64) bool) {
	for _, pg := range r.tab.pages {
		for i := range pg.ents {
			if e := &pg.ents[i]; e.count > 0 && !fn(e.tup, e.count) {
				return
			}
		}
	}
}

// EntrySpan returns the size of the relation's entry arena — the index
// domain EachBatch ranges over.  The span counts tombstoned entries too, so
// it is stable across reads and changes only under mutation; morsel-driven
// scans cut [0, EntrySpan()) into work-stealing ranges.
func (r *Relation) EntrySpan() int { return r.tab.n }

// EachBatch calls fn with consecutive vectors of up to size live chunks
// (tuples[i] occurs counts[i] times) stored in arena positions [lo, hi),
// clamped to the entry span, filled page by page in one tight pass with no
// per-tuple callback.  [0, EntrySpan()) is the whole relation, and the
// ranges of a partition of it are disjoint and cover the relation, which is
// what makes any morsel-wise split of a scan exact under bag semantics:
// every occurrence is delivered by exactly one range.  The slices passed to
// fn are reused between calls and must not be retained; the tuples inside
// them may be.  If fn returns false, iteration stops.  fn must not mutate r.
func (r *Relation) EachBatch(lo, hi, size int, fn func(tuples []tuple.Tuple, counts []uint64) bool) {
	tab := r.tab
	lo, hi = max(lo, 0), min(hi, tab.n)
	if lo >= hi {
		return
	}
	if size <= 0 {
		size = 256
	}
	tuples := make([]tuple.Tuple, 0, min(size, hi-lo))
	counts := make([]uint64, 0, cap(tuples))
	first := lo >> tab.pageBits << tab.pageBits // arena position of pg's first entry
	for _, pg := range tab.pages[lo>>tab.pageBits : (hi-1)>>tab.pageBits+1] {
		ents := pg.ents[max(lo-first, 0):min(hi-first, len(pg.ents))]
		first += 1 << tab.pageBits
		for i := range ents {
			e := &ents[i]
			if e.count == 0 {
				continue
			}
			tuples = append(tuples, e.tup)
			counts = append(counts, e.count)
			if len(tuples) == cap(tuples) {
				if !fn(tuples, counts) {
					return
				}
				tuples, counts = tuples[:0], counts[:0]
			}
		}
	}
	if len(tuples) > 0 {
		fn(tuples, counts)
	}
}

// AddBatch adds tuples[i] with multiplicity counts[i] for every i, like a
// loop over Add but with the copy-on-write check hoisted out of the loop.  It
// is the sink half of the physical layer's batched emit: one call installs a
// whole output batch.  Zero counts are skipped.  The slices must have equal
// length; the relation keeps references to the tuples but not to the slices.
func (r *Relation) AddBatch(tuples []tuple.Tuple, counts []uint64) {
	if len(tuples) == 0 {
		return
	}
	r.materialize()
	tab := r.tab
	for i, t := range tuples {
		if counts[i] == 0 {
			continue
		}
		tab.add(t.Hash(), probe{tup: t}, counts[i])
	}
}

// AddBatchSel is AddBatch over a selection vector: only the physical rows
// listed in sel (ascending indices into tuples/counts) are added.  It is the
// sink half of the columnar emit contract — a filtered batch lands in the
// relation without ever being compacted.  Zero counts are skipped.
func (r *Relation) AddBatchSel(tuples []tuple.Tuple, counts []uint64, sel []int32) {
	if len(sel) == 0 {
		return
	}
	r.materialize()
	tab := r.tab
	for _, i := range sel {
		if counts[i] == 0 {
			continue
		}
		t := tuples[i]
		tab.add(t.Hash(), probe{tup: t}, counts[i])
	}
}

// AddColumns is AddBatch over a columnar batch: row i, whose attribute c is
// cols[c][i], is added with multiplicity counts[i] for every i in sel
// (ascending indices), or for every row when sel is nil.  A row is hashed
// and compared against the stored tuples straight off the column vectors
// (tuple.HashRow), and a tuple is built only for a row the relation does not
// hold yet, so rows that collapse onto few distinct tuples cost one tuple
// each.  Zero counts are skipped.  The relation keeps none of the slices.
func (r *Relation) AddColumns(cols []value.Vec, counts []uint64, sel []int32) {
	if len(counts) == 0 || sel != nil && len(sel) == 0 {
		return
	}
	r.materialize()
	tab := r.tab
	if sel == nil {
		for i, n := range counts {
			if n != 0 {
				tab.add(tuple.HashRow(cols, i), probe{cols: cols, row: i}, n)
			}
		}
		return
	}
	for _, i := range sel {
		if n := counts[i]; n != 0 {
			tab.add(tuple.HashRow(cols, int(i)), probe{cols: cols, row: int(i)}, n)
		}
	}
}

// Tuples returns all occurrences as a flat slice (duplicates expanded), in
// canonical (sorted) order for deterministic output.
func (r *Relation) Tuples() []tuple.Tuple {
	out := make([]tuple.Tuple, 0, r.tab.total)
	r.EachSorted(func(t tuple.Tuple, count uint64) bool {
		for i := uint64(0); i < count; i++ {
			out = append(out, t)
		}
		return true
	})
	return out
}

// EachSorted iterates distinct tuples in canonical lexicographic order.  It is
// intended for deterministic rendering and test assertions; the algebra never
// relies on order.
func (r *Relation) EachSorted(fn func(t tuple.Tuple, count uint64) bool) {
	live := slices.AppendSeq(make([]*entry, 0, r.tab.live), r.tab.entries(nil))
	sort.Slice(live, func(a, b int) bool { return live[a].tup.Compare(live[b].tup) < 0 })
	for _, e := range live {
		if !fn(e.tup, e.count) {
			return
		}
	}
}

// Clone returns an independent copy of the relation in O(1): the table is
// shared copy-on-write, and whichever side mutates first copies the page
// directories, then only the pages it writes.  Tuples are immutable and
// always shared.
func (r *Relation) Clone() *Relation { return r.WithSchema(r.schema) }

// WithSchema returns a re-typed view of the relation carrying a different
// (but compatible) schema.  Like Clone, the view shares the table
// copy-on-write, so it is safe to mutate either side afterwards.
func (r *Relation) WithSchema(s schema.Relation) *Relation {
	r.cow.Store(true)
	cp := &Relation{schema: s, tab: r.tab}
	cp.cow.Store(true)
	return cp
}

// KeyColumn returns the column the relation's key chain hashes, and false
// when the relation has none.
func (r *Relation) KeyColumn() (int, bool) { return r.tab.keyCol, r.tab.keyCol >= 0 }

// WithKey returns a copy of the relation whose table keeps a key chain on
// column col (0-based), or none when col is negative: the index EachKey
// walks.  The bag is unchanged.  When the relation is already keyed on col
// the copy is an O(1) Clone; otherwise the table is rebuilt once into pages
// of the copy's own, tombstones dropped, and r is left as it was.
func (r *Relation) WithKey(col int) *Relation {
	if col >= r.schema.Arity() {
		panic(fmt.Sprintf("multiset: key column %d out of range for arity %d", col, r.schema.Arity()))
	}
	col = max(col, -1)
	if r.tab.keyCol == col {
		return r.Clone()
	}
	tab := r.tab.fork()
	tab.keyCol = col
	tab.rebuild()
	return &Relation{schema: r.schema, tab: tab}
}

// EachKey calls fn once per live tuple on the key chain of v: every tuple
// whose key column value hashes like v, which includes every tuple whose key
// column satisfies "= v" (value.CompareOp's equality implies equal hashes).
// Callers filter the candidates with the full predicate.  EachKey reports
// false, without calling fn, when the relation has no key chain on col.  If
// fn returns false, iteration stops.  fn must not mutate r.
func (r *Relation) EachKey(col int, v value.Value, fn func(t tuple.Tuple, count uint64) bool) bool {
	tab := r.tab
	if col < 0 || tab.keyCol != col {
		return false
	}
	kh := v.Hash()
	for l := tab.head(tab.kheads, kh); l != 0; {
		e := tab.at(l - 1)
		if e.count > 0 && e.tup.At(col).Hash() == kh && !fn(e.tup, e.count) {
			break
		}
		l = e.knext
	}
	return true
}

// Equal implements Definition 2.3's equality: R1 = R2 ⇔ ∀x R1(x) = R2(x).
// Pages the two relations share are skipped, so comparing a relation with a
// lightly mutated clone costs the mutated pages only.
func (r *Relation) Equal(o *Relation) bool {
	if r.tab.total != o.tab.total || r.tab.live != o.tab.live {
		return false
	}
	for e := range r.tab.entries(o.tab) {
		if o.tab.count(e.hash, e.tup) != e.count {
			return false
		}
	}
	return true
}

// SubsetOf implements Definition 2.3's multi-subset: R1 ⊑ R2 ⇔ ∀x R1(x) ≤ R2(x).
// Shared pages are skipped as in Equal.
func (r *Relation) SubsetOf(o *Relation) bool {
	if r.tab.total > o.tab.total {
		return false
	}
	for e := range r.tab.entries(o.tab) {
		if o.tab.count(e.hash, e.tup) < e.count {
			return false
		}
	}
	return true
}

// String renders the relation as a sorted multi-set literal
// {t1^m1, t2^m2, ...} with multiplicities shown when greater than one.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	r.EachSorted(func(t tuple.Tuple, count uint64) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(t.String())
		if count > 1 {
			fmt.Fprintf(&b, "^%d", count)
		}
		return true
	})
	b.WriteByte('}')
	return b.String()
}
