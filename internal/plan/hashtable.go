package plan

import "mra/internal/tuple"

// hashTable is the one chained hash table of the physical layer, behind the
// hash join's build (serial or shared by a probe gang), Γ's groups, δ's
// seen-set, the counted build of ∸ and ∩, and the closure's pair set and
// successor index.  It makes the one decision they share — how a key is
// hashed off a row or a tuple and how chain candidates compare — and callers
// keep their payload in their own slices, indexed by entry.
//
// An entry is a tuple whose key is its values at cols, fixed when the table
// is made; a probe names its own key columns, as a join probes on other
// columns than it builds on.  Keys hash exactly as tuple.HashOn does and
// compare by value.Equal.  insert always appends, so a join key may hold
// several entries; rowEntry and tupleEntry add only a key the table lacks.
// Entries are numbered from 0 in insertion order.
type hashTable struct {
	// cols are the key columns of the entries' tuples.
	cols []int
	// heads maps a key hash to the newest entry of its collision chain.
	heads map[uint64]int32
	// next links each entry to the next older one of its chain, or is -1.
	next []int32
	// tups holds each entry's tuple.
	tups []tuple.Tuple
}

// newHashTable returns an empty table keyed on cols.  It is not pre-sized:
// the planner's capacity hints are often only upper bounds (δ over a
// projection), and a table sized for one spreads a few keys over far more
// memory than they need.
func newHashTable(cols []int) *hashTable {
	return &hashTable{cols: cols, heads: make(map[uint64]int32)}
}

// allCols returns the columns 0 … arity-1: the key of a table that holds
// whole tuples.
func allCols(arity int) []int {
	cols := make([]int, arity)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// len returns the number of entries.
func (t *hashTable) len() int { return len(t.tups) }

// hashRow returns the hash of physical row r of b on cols, read in place off
// either view: bit-identical to tuple.HashOn of the row's tuple.
func hashRow(b *Batch, r int, cols []int) uint64 {
	if b.Tuples != nil {
		return b.Tuples[r].HashOn(cols)
	}
	h := tuple.HashSeed
	for _, c := range cols {
		h = tuple.HashMix(h, b.Cols[c][r])
	}
	return h
}

// chain returns the first entry of the collision chain of hash h, or -1.
func (t *hashTable) chain(h uint64) int32 {
	if e, ok := t.heads[h]; ok {
		return e
	}
	return -1
}

// nextRow walks a chain from entry e on and returns the first entry whose
// key equals physical row r of b on the probe columns cols, read in place,
// or -1; walking on from next[e] finds the key's further entries.
func (t *hashTable) nextRow(e int32, b *Batch, r int, cols []int) int32 {
	if b.Tuples != nil {
		return t.nextTuple(e, b.Tuples[r], cols)
	}
chain:
	for ; e >= 0; e = t.next[e] {
		tup := t.tups[e]
		for k, c := range cols {
			if !b.Cols[c][r].Equal(tup.At(t.cols[k])) {
				continue chain
			}
		}
		return e
	}
	return -1
}

// nextTuple is nextRow for a key carried by tuple x at the columns cols.
func (t *hashTable) nextTuple(e int32, x tuple.Tuple, cols []int) int32 {
chain:
	for ; e >= 0; e = t.next[e] {
		tup := t.tups[e]
		for k, c := range cols {
			if !x.At(c).Equal(tup.At(t.cols[k])) {
				continue chain
			}
		}
		return e
	}
	return -1
}

// add appends tup as a new entry under hash h, whose chain starts at head
// (the chain(h) of the caller's failed look-up), and returns its number.
func (t *hashTable) add(h uint64, head int32, tup tuple.Tuple) int32 {
	e := int32(len(t.tups))
	t.heads[h] = e
	t.next = append(t.next, head)
	t.tups = append(t.tups, tup)
	return e
}

// insert appends tup as a new entry, hashed on the table's key columns.
func (t *hashTable) insert(tup tuple.Tuple) int32 {
	h := tup.HashOn(t.cols)
	return t.add(h, t.chain(h), tup)
}

// rowEntry returns the entry whose key equals physical row r of b on the
// table's key columns, adding the row as a new entry, built into a tuple,
// when there is none; added reports which.
func (t *hashTable) rowEntry(b *Batch, r int) (e int32, added bool) {
	h := hashRow(b, r, t.cols)
	head := t.chain(h)
	if e := t.nextRow(head, b, r, t.cols); e >= 0 {
		return e, false
	}
	return t.add(h, head, b.TupleAt(r)), true
}

// tupleEntry is rowEntry for a tuple: it returns x's entry, adding x itself
// when there is none.
func (t *hashTable) tupleEntry(x tuple.Tuple) (e int32, added bool) {
	h := x.HashOn(t.cols)
	head := t.chain(h)
	if e := t.nextTuple(head, x, t.cols); e >= 0 {
		return e, false
	}
	return t.add(h, head, x), true
}
