package dump

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"mra/internal/multiset"
	"mra/internal/schema"
	"mra/internal/storage"
	"mra/internal/tuple"
	"mra/internal/value"
	"mra/internal/workload"
)

func newTestDB(t testing.TB) *storage.Database {
	t.Helper()
	db := storage.NewDatabase()
	beer, brewery := workload.Beers(workload.BeerConfig{Breweries: 5, BeersPerBrewery: 4, DuplicateNames: true, Seed: 1})
	if err := db.CreateRelation(workload.BeerSchema()); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateRelation(workload.BrewerySchema()); err != nil {
		t.Fatal(err)
	}
	mixed := schema.NewRelation("mixed",
		schema.Attribute{Name: "i", Type: value.KindInt},
		schema.Attribute{Name: "f", Type: value.KindFloat},
		schema.Attribute{Name: "s", Type: value.KindString},
		schema.Attribute{Name: "b", Type: value.KindBool},
	)
	if err := db.CreateRelation(mixed); err != nil {
		t.Fatal(err)
	}
	inst := multiset.New(mixed)
	inst.Add(tuple.New(value.NewInt(1), value.NewFloat(2.5), value.NewString("it's"), value.NewBool(true)), 3)
	inst.Add(tuple.New(value.NewInt(-7), value.NewFloat(0), value.NewString("semi;colon"), value.NewBool(false)), 1)
	inst.Add(tuple.New(value.Null, value.Null, value.Null, value.Null), 2)
	if _, err := db.Apply(map[string]*multiset.Relation{
		"beer": beer, "brewery": brewery, "mixed": inst,
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestRoundTrip(t *testing.T) {
	db := newTestDB(t)
	var buf bytes.Buffer
	if err := Write(db, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "# mra dump v1") {
		t.Error("dump must start with the header")
	}
	restored, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Names(), db.Names(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("relations = %v, want %v", got, want)
	}
	for _, name := range db.Names() {
		orig, _ := db.Relation(name)
		back, _ := restored.Relation(name)
		if !orig.Equal(back) {
			t.Errorf("relation %q not restored faithfully:\n%s\n%s", name, orig, back)
		}
		if !orig.Schema().Equal(back.Schema()) || orig.Schema().Name() != back.Schema().Name() {
			t.Errorf("schema of %q not restored: %s vs %s", name, orig.Schema(), back.Schema())
		}
	}
	// Restored databases start a fresh logical time.
	if restored.LogicalTime() != 1 {
		t.Errorf("restored logical time = %d (one Apply installing the contents)", restored.LogicalTime())
	}
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 10; round++ {
		db := storage.NewDatabase()
		rel := schema.NewRelation("r",
			schema.Attribute{Name: "a", Type: value.KindInt},
			schema.Attribute{Name: "b", Type: value.KindString},
		)
		if err := db.CreateRelation(rel); err != nil {
			t.Fatal(err)
		}
		inst := multiset.New(rel)
		for i := 0; i < rng.Intn(30); i++ {
			inst.Add(tuple.New(
				value.NewInt(int64(rng.Intn(10))),
				value.NewString(strings.Repeat("'", rng.Intn(3))+"v"+letter(rng.Intn(5))),
			), uint64(1+rng.Intn(4)))
		}
		if _, err := db.Apply(map[string]*multiset.Relation{"r": inst}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(db, &buf); err != nil {
			t.Fatal(err)
		}
		restored, err := Read(&buf)
		if err != nil {
			t.Fatalf("round %d: %v\ndump:\n%s", round, err, buf.String())
		}
		orig, _ := db.Relation("r")
		back, _ := restored.Relation("r")
		if !orig.Equal(back) {
			t.Fatalf("round %d: round trip changed the relation\n%s\n%s", round, orig, back)
		}
	}
}

func letter(n int) string { return string(rune('a' + n)) }

func TestReadIntoExistingDatabase(t *testing.T) {
	db := newTestDB(t)
	var buf bytes.Buffer
	if err := Write(db, &buf); err != nil {
		t.Fatal(err)
	}
	// Restoring into a database that already has one of the relations fails
	// and creates nothing — whether the clash is the dump's first relation
	// (beer) or its last (mixed, after beer and brewery have been parsed).
	for _, held := range []schema.Relation{workload.BeerSchema(), mustSchema(t, db, "mixed")} {
		target := storage.NewDatabase()
		if err := target.CreateRelation(held); err != nil {
			t.Fatal(err)
		}
		before := target.Names()
		if err := ReadInto(target, bytes.NewReader(buf.Bytes())); !errors.Is(err, storage.ErrRelationExists) {
			t.Errorf("restoring over an existing %q: err = %v, want ErrRelationExists", held.Name(), err)
		}
		assertNames(t, target, before)
	}
	// An empty dump restores nothing.
	empty := storage.NewDatabase()
	if err := ReadInto(empty, strings.NewReader("# mra dump v1\n")); err != nil {
		t.Fatal(err)
	}
	if len(empty.Names()) != 0 {
		t.Error("empty dump must restore nothing")
	}
}

// mustSchema returns the schema of db's relation name.
func mustSchema(t testing.TB, db *storage.Database, name string) schema.Relation {
	t.Helper()
	s, ok := db.RelationSchema(name)
	if !ok {
		t.Fatalf("no relation %q", name)
	}
	return s
}

// assertNames fails unless db holds exactly the named relations.
func assertNames(t *testing.T, db *storage.Database, want []string) {
	t.Helper()
	if got := db.Names(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("relations after a failed restore = %v, want %v", got, want)
	}
}

func TestReadErrors(t *testing.T) {
	bad := []string{
		"",                                                              // missing header
		"not a dump",                                                    // wrong header
		"# mra dump v1\nnonsense",                                       // expected relation
		"# mra dump v1\nrelation r",                                     // malformed declaration
		"# mra dump v1\nrelation (x int)\nend",                          // missing name
		"# mra dump v1\nrelation r()\nend",                              // no columns
		"# mra dump v1\nrelation r(x money)\nend",                       // unknown domain
		"# mra dump v1\nrelation r(x int int)\nend",                     // malformed column
		"# mra dump v1\nrelation r(x int)\nt 1 | 1",                     // missing end
		"# mra dump v1\nrelation r(x int)\nrow 1\nend",                  // bad tuple line
		"# mra dump v1\nrelation r(x int)\nt 1 1\nend",                  // missing separator
		"# mra dump v1\nrelation r(x int)\nt 0 | 1\nend",                // zero multiplicity
		"# mra dump v1\nrelation r(x int)\nt x | 1\nend",                // bad multiplicity
		"# mra dump v1\nrelation r(x int)\nt 1 | 1;2\nend",              // arity mismatch
		"# mra dump v1\nrelation r(x int)\nt 1 | 'one'\nend",            // wrong domain
		"# mra dump v1\nrelation r(x float)\nt 1 | abc\nend",            // bad float
		"# mra dump v1\nrelation r(x bool)\nt 1 | maybe\nend",           // bad bool
		"# mra dump v1\nrelation r(x string)\nt 1 | 'abc\nend",          // unterminated string
		"# mra dump v1\nrelation r(x string)\nt 1 | abc\nend",           // unquoted string
		"# mra dump v1\nrelation r(x int)\nend\nrelation r(x int)\nend", // duplicate relation
	}
	// A dump torn mid-relation after a complete one, and one that repeats a
	// relation after others: both fail after earlier relations parsed fine.
	var dump bytes.Buffer
	if err := Write(newTestDB(t), &dump); err != nil {
		t.Fatal(err)
	}
	torn := dump.String()[:strings.LastIndex(dump.String(), "end")]
	bad = append(bad, torn, dump.String()+"relation beer(x int)\nend\n")
	for _, src := range bad {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("input %q must fail to restore", src)
		}
		// A failing restore into a populated database leaves its catalog and
		// contents exactly as they were.
		target := storage.NewDatabase()
		if err := target.CreateRelation(schema.NewRelation("kept", schema.Attribute{Name: "x", Type: value.KindInt})); err != nil {
			t.Fatal(err)
		}
		if err := ReadInto(target, strings.NewReader(src)); err == nil {
			t.Errorf("input %q must fail to restore into a populated database", src)
		}
		assertNames(t, target, []string{"kept"})
	}
	// Format errors wrap ErrFormat.
	_, err := Read(strings.NewReader("# mra dump v1\nnonsense"))
	if !errors.Is(err, ErrFormat) {
		t.Errorf("expected ErrFormat, got %v", err)
	}
}

func TestNullsSurviveRoundTrip(t *testing.T) {
	db := newTestDB(t)
	var buf bytes.Buffer
	if err := Write(db, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "null") {
		t.Error("dump must contain the null cells")
	}
	restored, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	mixed, _ := restored.Relation("mixed")
	if mixed.Multiplicity(tuple.New(value.Null, value.Null, value.Null, value.Null)) != 2 {
		t.Errorf("null tuple multiplicity lost: %s", mixed)
	}
}
