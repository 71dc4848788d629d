package mra

import (
	"strings"
	"testing"
)

// openBeerDB builds the paper's running example through the public API.
func openBeerDB(t testing.TB) *DB {
	t.Helper()
	db := Open()
	db.MustCreateRelation("beer",
		Col("name", String), Col("brewery", String), Col("alcperc", Float))
	db.MustCreateRelation("brewery",
		Col("name", String), Col("city", String), Col("country", String))
	if err := db.InsertValues("beer",
		[]any{"pils", "guineken", 5.0},
		[]any{"pils", "brolsch", 5.2},
		[]any{"bock", "guineken", 6.5},
		[]any{"stout", "guinness", 4.2},
	); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertValues("brewery",
		[]any{"guineken", "amsterdam", "netherlands"},
		[]any{"brolsch", "enschede", "netherlands"},
		[]any{"guinness", "dublin", "ireland"},
	); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCreateRelationAndInsert(t *testing.T) {
	db := openBeerDB(t)
	if got := db.Relations(); len(got) != 2 || got[0] != "beer" {
		t.Errorf("Relations = %v", got)
	}
	if db.Cardinality("beer") != 4 || db.Cardinality("brewery") != 3 {
		t.Error("cardinalities after insert")
	}
	if db.LogicalTime() != 2 {
		t.Errorf("two committed inserts, logical time = %d", db.LogicalTime())
	}
	if err := db.CreateRelation("empty"); err == nil {
		t.Error("relation without columns must fail")
	}
	if err := db.CreateRelation("beer", Col("x", Int)); err == nil {
		t.Error("duplicate relation must fail")
	}
	if err := db.InsertValues("wine", []any{1}); err == nil {
		t.Error("insert into unknown relation must fail")
	}
	if err := db.InsertValues("beer", []any{"x"}); err == nil {
		t.Error("arity mismatch must fail")
	}
	if err := db.InsertValues("beer", []any{"x", "y", struct{}{}}); err == nil {
		t.Error("unsupported Go value must fail")
	}
	if err := db.DropRelation("brewery"); err != nil {
		t.Fatal(err)
	}
	if len(db.Relations()) != 1 {
		t.Error("drop must remove the relation")
	}
	if _, ok := db.Catalog().RelationSchema("beer"); !ok {
		t.Error("catalog lookup")
	}
	if len(db.History()) != 2 {
		t.Errorf("history = %v", db.History())
	}
	mustPanic(t, func() { db.MustCreateRelation("beer", Col("x", Int)) })
	mustPanic(t, func() { db.MustExecXRA("insert(nosuch, [(1)])") })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestQueryXRAAndSQLAgree(t *testing.T) {
	db := openBeerDB(t)
	// The paper's Example 3.1 through both front-ends.
	xra, err := db.QueryXRA("project[%1](select[%6 = 'netherlands'](join[%2 = %4](beer, brewery)))")
	if err != nil {
		t.Fatal(err)
	}
	sql, err := db.QuerySQL(`SELECT beer.name FROM beer, brewery
		WHERE beer.brewery = brewery.name AND brewery.country = 'netherlands'`)
	if err != nil {
		t.Fatal(err)
	}
	if xra.Len() != 3 || sql.Len() != 3 {
		t.Fatalf("lens = %d, %d", xra.Len(), sql.Len())
	}
	if xra.Multiplicity("pils") != 2 || sql.Multiplicity("pils") != 2 {
		t.Error("duplicates must be preserved by both front-ends")
	}
	// Errors.
	if _, err := db.QueryXRA("select[%9 = 1](beer)"); err == nil {
		t.Error("invalid expression must fail validation")
	}
	if _, err := db.QueryXRA("select[%1 =](beer)"); err == nil {
		t.Error("syntax errors must surface")
	}
	if _, err := db.QuerySQL("SELECT nosuch FROM beer"); err == nil {
		t.Error("SQL name errors must surface")
	}
	if _, err := db.QuerySQL("DELETE FROM beer"); err == nil {
		t.Error("QuerySQL must reject DML")
	}
}

func TestResultAccessors(t *testing.T) {
	db := openBeerDB(t)
	res, err := db.QuerySQL("SELECT brewery, COUNT(*) AS beers FROM beer GROUP BY brewery")
	if err != nil {
		t.Fatal(err)
	}
	if cols := res.Columns(); len(cols) != 2 || cols[0] != "brewery" || cols[1] != "beers" {
		t.Errorf("Columns = %v", cols)
	}
	if res.Len() != 3 || res.DistinctLen() != 3 {
		t.Errorf("Len = %d, DistinctLen = %d", res.Len(), res.DistinctLen())
	}
	rows := res.Rows()
	if len(rows) != 3 || len(rows[0]) != 2 {
		t.Errorf("Rows = %v", rows)
	}
	if res.Multiplicity("guineken", 2) != 1 {
		t.Errorf("Multiplicity lookup failed: %s", res)
	}
	if res.Multiplicity(struct{}{}) != 0 {
		t.Error("unconvertible values have multiplicity 0")
	}
	dr := res.DistinctRows()
	if len(dr) != 3 || dr[0].Count != 1 {
		t.Errorf("DistinctRows = %v", dr)
	}
	table := res.Table()
	if !strings.Contains(table, "brewery") || !strings.Contains(table, "(3 rows)") {
		t.Errorf("Table = %q", table)
	}
	if !strings.HasPrefix(res.String(), "{") {
		t.Errorf("String = %q", res.String())
	}
	// Unnamed computed columns get positional names.
	anon, err := db.QueryXRA("xproject[%3 * 2](beer)")
	if err != nil {
		t.Fatal(err)
	}
	if cols := anon.Columns(); cols[0] != "col1" {
		t.Errorf("anonymous column name = %v", cols)
	}
}

func TestExecXRAScriptsAndTransactions(t *testing.T) {
	db := openBeerDB(t)
	results, err := db.ExecXRA(`
		-- Example 4.1: raise guineken's percentages by 10%.
		update(beer, select[%2 = 'guineken'](beer), (%1, %2, %3 * 1.1));
		?select[%2 = 'guineken'](beer);
		begin
			strong = select[%3 >= 6](beer);
			?project[%1](strong);
			delete(beer, strong);
		end;
		?beer;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("query outputs = %d", len(results))
	}
	if results[0].Len() != 2 {
		t.Errorf("guineken beers = %d", results[0].Len())
	}
	// strong after update: bock 7.15 and... pils 5.5? no, >= 6 keeps bock and tripel-less set → bock only? alcperc values: 5.5, 5.2, 7.15, 4.2 → only bock.
	if results[1].Len() != 1 {
		t.Errorf("strong beers = %d: %s", results[1].Len(), results[1])
	}
	if results[2].Len() != 3 {
		t.Errorf("remaining beers = %d", results[2].Len())
	}
	// A failing script aborts only the failing transaction.
	before := db.Cardinality("beer")
	_, err = db.ExecXRA("begin delete(beer, beer); insert(beer, nosuch); end")
	if err == nil {
		t.Fatal("failing transaction must error")
	}
	if db.Cardinality("beer") != before {
		t.Error("failed transaction must leave the database unchanged")
	}
	// Parse errors surface.
	if _, err := db.ExecXRA("insert(beer"); err != nil {
		if !strings.Contains(err.Error(), "xra:") {
			t.Errorf("parse error format: %v", err)
		}
	} else {
		t.Error("parse errors must surface")
	}
}

func TestExecSQLScript(t *testing.T) {
	db := openBeerDB(t)
	results, err := db.ExecSQL(`
		INSERT INTO beer VALUES ('radler', 'brolsch', 2.0);
		UPDATE beer SET alcperc = alcperc * 1.1 WHERE brewery = 'guineken';
		DELETE FROM beer WHERE brewery = 'guinness';
		SELECT brewery, COUNT(*) FROM beer GROUP BY brewery;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Multiplicity("brolsch", int64(2)) != 1 {
		t.Errorf("brolsch group = %s", results[0])
	}
	if db.Cardinality("beer") != 4 {
		t.Errorf("|beer| = %d", db.Cardinality("beer"))
	}
	// SQL scripts run as one transaction: a failing statement rolls back all.
	before := db.Cardinality("beer")
	_, err = db.ExecSQL(`DELETE FROM beer; INSERT INTO beer VALUES ('x', 'y', 'not a float', 4)`)
	if err == nil {
		t.Fatal("bad script must fail")
	}
	if db.Cardinality("beer") != before {
		t.Error("failed SQL script must leave the database unchanged")
	}
	if _, err := db.ExecSQL("SELECT nosuch FROM beer"); err == nil {
		t.Error("compile errors must surface")
	}
}

func TestExplicitTransactions(t *testing.T) {
	db := openBeerDB(t)
	tx := db.Begin()
	if err := tx.ExecSQL("DELETE FROM beer WHERE brewery = 'guinness'"); err != nil {
		t.Fatal(err)
	}
	if err := tx.ExecXRA("?beer"); err != nil {
		t.Fatal(err)
	}
	res, err := tx.Query("select[%2 = 'guinness'](beer)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Error("transaction must see its own delete")
	}
	if db.Cardinality("beer") != 4 {
		t.Error("uncommitted changes must be invisible outside")
	}
	if outs := tx.Outputs(); len(outs) != 1 || outs[0].Len() != 3 {
		t.Errorf("outputs = %v", outs)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if db.Cardinality("beer") != 3 {
		t.Error("committed delete must be visible")
	}

	// Abort path and error paths.
	tx2 := db.Begin()
	if err := tx2.ExecXRA("delete(beer, beer)"); err != nil {
		t.Fatal(err)
	}
	tx2.Abort()
	if db.Cardinality("beer") != 3 {
		t.Error("aborted delete must not apply")
	}
	tx3 := db.Begin()
	if err := tx3.ExecXRA("insert(beer"); err == nil {
		t.Error("XRA parse error must surface")
	}
	if err := tx3.ExecSQL("DELETE FROM wine"); err == nil {
		t.Error("SQL compile error must surface")
	}
	if _, err := tx3.Query("select[%1 =](beer)"); err == nil {
		t.Error("query parse error must surface")
	}
	if _, err := tx3.Query("nosuch"); err == nil {
		t.Error("unknown relation must surface")
	}
	tx3.Abort()
}

func TestExplain(t *testing.T) {
	db := openBeerDB(t)
	ex, err := db.Explain("select[%2 = %4 and %6 = 'netherlands'](product(beer, brewery))")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.Logical, "product(") {
		t.Errorf("original plan = %s", ex.Logical)
	}
	// The planner folds σ over × into a hash join and pushes the conjunct on
	// brewery below it: physical decisions, not rewrites.
	if !strings.Contains(ex.Physical, "HashJoin [%2 = %4]") {
		t.Errorf("physical plan must show the hash join:\n%s", ex.Physical)
	}
	if !strings.Contains(ex.Physical, "Filter [%3 = 'netherlands']") {
		t.Errorf("physical plan must filter brewery below the join:\n%s", ex.Physical)
	}
	if _, err := db.Explain("select[%1 =](beer)"); err == nil {
		t.Error("parse errors must surface")
	}
	if _, err := db.Explain("select[%9 = 1](beer)"); err == nil {
		t.Error("validation errors must surface")
	}
}
