package storage

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"mra/internal/multiset"
	"mra/internal/schema"
	"mra/internal/tuple"
	"mra/internal/value"
)

func intRel(name string) schema.Relation {
	return schema.NewRelation(name,
		schema.Attribute{Name: "a", Type: value.KindInt},
		schema.Attribute{Name: "b", Type: value.KindInt},
	)
}

func TestCreateDropRelation(t *testing.T) {
	db := NewDatabase()
	if err := db.CreateRelation(intRel("r")); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateRelation(intRel("r")); !errors.Is(err, ErrRelationExists) {
		t.Errorf("duplicate create = %v", err)
	}
	if err := db.CreateRelation(schema.Anonymous(schema.Attribute{Name: "x", Type: value.KindInt})); err == nil {
		t.Error("anonymous relation must be rejected")
	}
	if got := db.Names(); len(got) != 1 || got[0] != "r" {
		t.Errorf("Names = %v", got)
	}
	if _, ok := db.Relation("R"); !ok {
		t.Error("case-insensitive lookup")
	}
	if s, ok := db.RelationSchema("r"); !ok || s.Name() != "r" {
		t.Error("RelationSchema")
	}
	if _, ok := db.RelationSchema("missing"); ok {
		t.Error("missing schema must not resolve")
	}
	if err := db.DropRelation("r"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropRelation("r"); !errors.Is(err, ErrNoSuchRelation) {
		t.Errorf("double drop = %v", err)
	}
	if _, ok := db.Relation("r"); ok {
		t.Error("dropped relation must be gone")
	}
}

func TestRelationReturnsSnapshot(t *testing.T) {
	db := NewDatabase()
	if err := db.CreateRelation(intRel("r")); err != nil {
		t.Fatal(err)
	}
	snap, _ := db.Relation("r")
	snap.Add(tuple.Ints(1, 2), 5)
	if db.Cardinality("r") != 0 {
		t.Error("mutating a snapshot must not affect the stored relation")
	}
	if db.Cardinality("missing") != 0 {
		t.Error("cardinality of a missing relation is 0")
	}
}

func TestApplyTransitions(t *testing.T) {
	db := NewDatabase()
	if err := db.CreateRelation(intRel("r")); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateRelation(intRel("s")); err != nil {
		t.Fatal(err)
	}
	if db.LogicalTime() != 0 {
		t.Error("fresh database starts at t=0")
	}

	inst := multiset.FromTuples(intRel("r"), tuple.Ints(1, 2), tuple.Ints(1, 2))
	tr, err := db.Apply(map[string]*multiset.Relation{"r": inst})
	if err != nil {
		t.Fatal(err)
	}
	if tr.From != 0 || tr.To != 1 || len(tr.Changed) != 1 || tr.Changed[0] != "r" {
		t.Errorf("transition = %+v", tr)
	}
	if db.LogicalTime() != 1 {
		t.Errorf("logical time = %d", db.LogicalTime())
	}
	if db.Cardinality("r") != 2 {
		t.Errorf("installed cardinality = %d", db.Cardinality("r"))
	}
	if !strings.Contains(tr.String(), "0 -> 1") {
		t.Errorf("transition string = %q", tr.String())
	}

	// Installing a new instance must not alias the caller's relation.
	inst.Add(tuple.Ints(9, 9), 1)
	if db.Cardinality("r") != 2 {
		t.Error("Apply must deep-copy the installed instance")
	}

	// Multi-relation transition.
	tr2, err := db.Apply(map[string]*multiset.Relation{
		"r": multiset.New(intRel("r")),
		"S": multiset.FromTuples(intRel("s"), tuple.Ints(3, 4)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr2.Changed) != 2 || db.LogicalTime() != 2 {
		t.Errorf("multi-relation transition = %+v at t=%d", tr2, db.LogicalTime())
	}
	if db.Cardinality("r") != 0 || db.Cardinality("s") != 1 {
		t.Error("both relations must be replaced")
	}
	hist := db.History()
	if len(hist) != 2 || hist[0].To != 1 || hist[1].To != 2 {
		t.Errorf("history = %v", hist)
	}

	// Unknown relation: nothing installed, time unchanged.
	if _, err := db.Apply(map[string]*multiset.Relation{"missing": inst}); !errors.Is(err, ErrNoSuchRelation) {
		t.Errorf("unknown target = %v", err)
	}
	if db.LogicalTime() != 2 {
		t.Error("failed Apply must not advance the logical time")
	}
	// Schema mismatch: atomic failure even when another target is valid.
	bad := multiset.New(schema.NewRelation("x", schema.Attribute{Name: "only", Type: value.KindString}))
	before := db.Cardinality("s")
	if _, err := db.Apply(map[string]*multiset.Relation{
		"s": multiset.New(intRel("s")),
		"r": bad,
	}); !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("schema mismatch = %v", err)
	}
	if db.Cardinality("s") != before || db.LogicalTime() != 2 {
		t.Error("a failed transition must leave the database unchanged")
	}
}

func TestApplyPreservesDeclaredSchema(t *testing.T) {
	db := NewDatabase()
	if err := db.CreateRelation(intRel("r")); err != nil {
		t.Fatal(err)
	}
	// Install an instance carrying an anonymous (but compatible) schema; the
	// declared schema must win.
	anon := multiset.FromTuples(schema.Anonymous(
		schema.Attribute{Type: value.KindInt},
		schema.Attribute{Type: value.KindInt},
	), tuple.Ints(7, 8))
	if _, err := db.Apply(map[string]*multiset.Relation{"r": anon}); err != nil {
		t.Fatal(err)
	}
	got, _ := db.Relation("r")
	if got.Schema().Name() != "r" || got.Schema().Attribute(0).Name != "a" {
		t.Errorf("declared schema must be preserved, got %s", got.Schema())
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	db := NewDatabase()
	if err := db.CreateRelation(intRel("r")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				inst := multiset.FromTuples(intRel("r"), tuple.Ints(seed, int64(i)))
				if _, err := db.Apply(map[string]*multiset.Relation{"r": inst}); err != nil {
					t.Errorf("apply: %v", err)
					return
				}
			}
		}(int64(w))
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if rel, ok := db.Relation("r"); ok {
					_ = rel.Cardinality()
				}
				_ = db.LogicalTime()
				_ = db.Names()
			}
		}()
	}
	wg.Wait()
	if db.LogicalTime() != 200 {
		t.Errorf("logical time after 200 transitions = %d", db.LogicalTime())
	}
	if len(db.History()) != 200 {
		t.Errorf("history length = %d", len(db.History()))
	}
}

// TestHistoryBounded checks that the transition history is a bounded,
// contiguous suffix: logical time counts every commit of a long-lived
// database while History keeps the most recent historyLimit.
func TestHistoryBounded(t *testing.T) {
	const commits = 2*historyLimit + 500
	db := newKeyLogDB(t, 1) // one Apply: logical time 1
	for v := int64(0); v < commits; v++ {
		since := db.Snapshot()
		if _, err := db.ApplyDeltas(since.Version(), map[string]Delta{"r": deltaFor(db, 0, v)}, nil); err != nil {
			t.Fatalf("commit %d: %v", v, err)
		}
		since.Release()
		if n := len(db.History()); n > historyLimit {
			t.Fatalf("after %d commits History holds %d transitions, limit %d", v+1, n, historyLimit)
		}
	}
	if got := db.LogicalTime(); got != commits+1 {
		t.Fatalf("logical time = %d, want %d", got, commits+1)
	}
	hist := db.History()
	if len(hist) != historyLimit {
		t.Fatalf("History holds %d transitions, want the most recent %d", len(hist), historyLimit)
	}
	if last := hist[len(hist)-1]; last.To != db.LogicalTime() {
		t.Errorf("newest transition ends at %d, logical time is %d", last.To, db.LogicalTime())
	}
	for i, tr := range hist {
		if tr.To != tr.From+1 || (i > 0 && tr.From != hist[i-1].To) {
			t.Fatalf("retained history is not contiguous at %d: %v after %v", i, tr, hist[max(i-1, 0)])
		}
	}
}
