package dump

import (
	"bytes"
	"strings"
	"testing"

	"mra/internal/multiset"
	"mra/internal/schema"
	"mra/internal/storage"
	"mra/internal/tuple"
	"mra/internal/value"
)

// FuzzReadInto feeds arbitrary bytes to ReadInto over a populated database.
// A restore must never panic, and one that fails must leave the target as it
// was: the same relation names, each holding an equal instance.  The seeds
// are TestRoundTrip's dump, truncated at several points and mutated in the
// places the parser checks (declarations, multiplicities, cells, end
// markers).  Each input is restored into two targets: one holding an
// unrelated relation, and one already holding the dump's last relation, so
// the clash is found after earlier relations parsed.
func FuzzReadInto(f *testing.F) {
	db := newTestDB(f)
	var buf bytes.Buffer
	if err := Write(db, &buf); err != nil {
		f.Fatal(err)
	}
	dump := buf.String()
	f.Add(dump)
	for _, n := range []int{len(header), len(header) + 10, len(dump) / 3, len(dump) / 2, len(dump) - 4} {
		f.Add(dump[:n])
	}
	for _, m := range [][2]string{
		{"end", "edn"},
		{"t 3 |", "t 0 |"},
		{"t 3 |", "t -3 |"},
		{"'it''s'", "'it's'"},
		{"float", "money"},
		{"relation mixed", "relation beer"},
		{"relation brewery(", "relation ("},
		{";", ";;"},
		{"null", "nul"},
		{"\n", "\r\n"},
	} {
		f.Add(strings.Replace(dump, m[0], m[1], 1))
	}
	f.Add(dump + dump)
	targets := []schema.Relation{
		schema.NewRelation("held", schema.Attribute{Name: "x", Type: value.KindInt}),
		mustSchema(f, db, "mixed"),
	}
	f.Fuzz(func(t *testing.T, data string) {
		for _, held := range targets {
			target := populated(t, held)
			before := make(map[string]*multiset.Relation)
			for _, name := range target.Names() {
				before[name], _ = target.Relation(name)
			}
			err := ReadInto(target, strings.NewReader(data))
			for name, want := range before {
				got, ok := target.Relation(name)
				if !ok || !got.Equal(want) {
					t.Fatalf("restore (err %v) changed %q: %v -> %v", err, name, want, got)
				}
			}
			if err != nil {
				assertNames(t, target, []string{held.Name()})
			}
		}
	})
}

// populated returns a database holding rel with one all-null row.
func populated(t *testing.T, rel schema.Relation) *storage.Database {
	t.Helper()
	db := storage.NewDatabase()
	if err := db.CreateRelation(rel); err != nil {
		t.Fatal(err)
	}
	vals := make([]value.Value, rel.Arity())
	for i := range vals {
		vals[i] = value.Null
	}
	inst := multiset.New(rel)
	inst.Add(tuple.New(vals...), 2)
	if _, err := db.Apply(map[string]*multiset.Relation{rel.Name(): inst}); err != nil {
		t.Fatal(err)
	}
	return db
}
