package main

import (
	"fmt"
	"math/rand"
)

// The generators below are the benchmark's own: they share no code with
// internal/loadgen or internal/workload, so a later change to those packages
// cannot shift what is measured.  Everything is a pure function of the seed.
// Sizes and selectivities are fixed by construction (permutations and exact
// decks instead of free draws wherever a draw would change how much work a
// query does), so runs with different seeds do the same amount of work on
// different values.

// Bank data shape: rows far above the two clients, a small hot set for the
// contended kind.
const (
	bankAccounts = 4096
	bankHot      = 8
)

// OLAP data shape.  The star is fact ⋈ d1 ⋈ d2 ⋈ d3; the chain is
// head ⋈ link1 ⋈ link2 ⋈ link3 with a one-to-chainFan expansion followed by
// two one-in-chainShrink selections.
const (
	factRows    = 60000
	dimRows     = 60
	zipfMax     = 999
	headRows    = 60000
	chainDomain = 1000
	chainFan    = 5
	chainShrink = 25
)

// relation is one generated relation: schema plus rows in the [][]any form
// mra.DB.InsertValues takes.
type relation struct {
	Name string
	Cols []column
	Rows [][]any
}

type column struct {
	Name string
	Kind byte // 'i' int, 'f' float, 's' string
}

// bankData generates account(id, owner, balance): ids 0..bankAccounts-1,
// balances whole cents in [0, 1000).
func bankData(seed int64) []relation {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]any, bankAccounts)
	for i := range rows {
		rows[i] = []any{int64(i), fmt.Sprintf("owner%04d", i), float64(rng.Intn(100000)) / 100}
	}
	return []relation{{
		Name: "account",
		Cols: []column{{"id", 'i'}, {"owner", 's'}, {"balance", 'f'}},
		Rows: rows,
	}}
}

// olapData generates the star and chain relations.  All columns are integers
// so that sums are exact and independent of the order parallel workers merge
// in.
func olapData(seed int64) []relation {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, zipfMax)

	fact := relation{Name: "fact", Cols: []column{{"k1", 'i'}, {"k2", 'i'}, {"k3", 'i'}, {"payload", 'i'}, {"z", 'i'}}}
	fact.Rows = make([][]any, factRows)
	for i := range fact.Rows {
		fact.Rows[i] = []any{
			int64(rng.Intn(dimRows)), int64(rng.Intn(dimRows)), int64(rng.Intn(dimRows)),
			int64(i), int64(zipf.Uint64()),
		}
	}
	out := []relation{fact}
	for d := 1; d <= 3; d++ {
		// attr is a permutation of the key range, so "attr < c" keeps exactly
		// c of the dimRows keys whatever the seed.
		perm := rng.Perm(dimRows)
		dim := relation{Name: fmt.Sprintf("d%d", d), Cols: []column{{"key", 'i'}, {"attr", 'i'}}}
		for k := 0; k < dimRows; k++ {
			dim.Rows = append(dim.Rows, []any{int64(k), int64(perm[k])})
		}
		out = append(out, dim)
	}

	head := relation{Name: "head", Cols: []column{{"key", 'i'}, {"payload", 'i'}}}
	head.Rows = make([][]any, headRows)
	for i := range head.Rows {
		head.Rows[i] = []any{int64(rng.Intn(chainDomain)), int64(i)}
	}
	link1 := relation{Name: "link1", Cols: []column{{"in", 'i'}, {"out", 'i'}}}
	for in := 0; in < chainDomain; in++ {
		for f := 0; f < chainFan; f++ {
			link1.Rows = append(link1.Rows, []any{int64(in), int64(in*chainFan + f)})
		}
	}
	out = append(out, head, link1)
	domain := chainDomain * chainFan
	for l := 2; l <= 3; l++ {
		link := relation{Name: fmt.Sprintf("link%d", l), Cols: []column{{"in", 'i'}, {"out", 'i'}}}
		for j := 0; j*chainShrink < domain; j++ {
			link.Rows = append(link.Rows, []any{int64(j * chainShrink), int64(j)})
		}
		out = append(out, link)
		domain /= chainShrink
	}
	return out
}

// op is one unit of offered work: a transaction (served) or a query (olap).
// A served op with several lines runs inside an explicit begin/commit
// bracket, one line per round trip; a single line is auto-committed.
type op struct {
	Kind  string
	Lines []string
	// XRA marks an olap query written in XRA instead of SQL.
	XRA bool
}

// kindWeight is one op kind's count in a deck of deckSize ops.
type kindWeight struct {
	Kind  string
	Count int
}

const deckSize = 20

var (
	bankMixDeck  = []kindWeight{{"analytics", 10}, {"transfer", 7}, {"hotspot", 3}}
	bankReadDeck = []kindWeight{{"point", 12}, {"agg", 5}, {"wide", 3}}
)

// opStream yields a served workload's ops.  Kinds are dealt from a deck that
// holds each kind in its exact share and is reshuffled every deckSize ops, so
// the mix by count is exact over any window rather than merely expected.
type opStream struct {
	rng  *rand.Rand
	deck []string
	pos  int
}

func newOpStream(weights []kindWeight, seed int64) *opStream {
	s := &opStream{rng: rand.New(rand.NewSource(seed))}
	for _, w := range weights {
		for i := 0; i < w.Count; i++ {
			s.deck = append(s.deck, w.Kind)
		}
	}
	if len(s.deck) != deckSize {
		panic(fmt.Sprintf("deck holds %d kinds, want %d", len(s.deck), deckSize))
	}
	s.pos = deckSize
	return s
}

// clientSeed derives client i's private stream seed from the run seed.
func clientSeed(seed int64, client int) int64 { return seed*1000003 + int64(client)*7919 + 1 }

func (s *opStream) next() op {
	if s.pos == deckSize {
		s.rng.Shuffle(deckSize, func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
		s.pos = 0
	}
	kind := s.deck[s.pos]
	s.pos++
	switch kind {
	case "analytics", "agg":
		return op{Kind: kind, Lines: []string{fmt.Sprintf(
			"select count(*), sum(balance) from account where balance > %d;", s.rng.Intn(900))}}
	case "transfer":
		return s.transfer(kind, bankAccounts)
	case "hotspot":
		return s.transfer(kind, bankHot)
	case "point":
		return op{Kind: kind, Lines: []string{fmt.Sprintf(
			"select owner, balance from account where id = %d;", s.rng.Intn(bankAccounts))}}
	case "wide":
		// Balances are uniform on [0, 1000): a floor in [900, 950) returns
		// 5–10 % of the relation, a few hundred rows.
		return op{Kind: kind, Lines: []string{fmt.Sprintf(
			"select * from account where balance > %d;", 900+s.rng.Intn(50))}}
	}
	panic("unknown op kind " + kind)
}

// transfer moves a whole-cent amount between two distinct ids below span.
func (s *opStream) transfer(kind string, span int) op {
	from := s.rng.Intn(span)
	to := s.rng.Intn(span - 1)
	if to >= from {
		to++
	}
	amt := float64(1+s.rng.Intn(500)) / 100
	return op{Kind: kind, Lines: []string{
		fmt.Sprintf("update account set balance = balance - %.2f where id = %d;", amt, from),
		fmt.Sprintf("update account set balance = balance + %.2f where id = %d;", amt, to),
	}}
}

// olapQueries is the fixed round-robin query list of both olap workloads.
// Texts carry no per-op parameters: the seed varies the data, and each
// query's first result is the reference every later execution must reproduce.
var olapQueries = []op{
	{Kind: "q_star", Lines: []string{
		"select d1.attr, count(*), sum(fact.payload) from fact, d1, d2, d3 " +
			"where fact.k1 = d1.key and fact.k2 = d2.key and fact.k3 = d3.key and d2.attr < 20 " +
			"group by d1.attr"}},
	{Kind: "q_chain", XRA: true, Lines: []string{
		"join[%6 = %7](join[%4 = %5](join[%1 = %3](head, link1), link2), link3)"}},
	{Kind: "q_scan", XRA: true, Lines: []string{
		"project[%4, %5](select[%5 >= 200 and %5 < 400](fact))"}},
	{Kind: "q_group", Lines: []string{
		"select k1, count(*), sum(payload), max(payload) from fact group by k1"}},
	{Kind: "q_group_hc", Lines: []string{
		"select k2, k3, sum(payload) from fact group by k2, k3"}},
	{Kind: "q_setops", XRA: true, Lines: []string{
		"intersect(unique(project[%1, %2](fact)), diff(project[%1, %2](fact), project[%2, %3](fact)))"}},
}

// olapOp returns the i-th op of the olap stream: the six queries in turn.
func olapOp(i int) op { return olapQueries[i%len(olapQueries)] }
