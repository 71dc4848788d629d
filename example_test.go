package mra_test

import (
	"fmt"

	"mra"
	"mra/internal/algebra"
	"mra/internal/scalar"
	"mra/internal/stmt"
	"mra/internal/value"
)

// beerDB returns a database holding beer(name, alcperc) with a duplicate row.
func beerDB() *mra.DB {
	db := mra.Open()
	db.MustCreateRelation("beer", mra.Col("name", mra.String), mra.Col("alcperc", mra.Float))
	db.MustExecXRA(`insert(beer, [('pils', 5.0), ('pils', 5.0), ('bock', 6.5)])`)
	return db
}

// QueryExpr evaluates an algebra expression built in Go.  The projection
// keeps duplicates: the algebra works on bags.
func ExampleDB_QueryExpr() {
	db := beerDB()
	res, err := db.QueryExpr(algebra.NewProject([]int{0}, algebra.NewRel("beer")))
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Len(), res.Multiplicity("pils"), res.Multiplicity("bock"))
	// Output: 3 2 1
}

// ExecProgram runs a program of statements as one transaction: the query
// statement sees the insert made before it.
func ExampleDB_ExecProgram() {
	db := beerDB()
	db.MustCreateRelation("strong", mra.Col("name", mra.String), mra.Col("alcperc", mra.Float))
	strong := algebra.NewSelect(
		scalar.NewCompare(value.CmpGe, scalar.NewAttr(1), scalar.NewConst(value.NewFloat(6))),
		algebra.NewRel("beer"))
	results, err := db.ExecProgram(stmt.Program{
		stmt.Insert{Target: "strong", Source: strong},
		stmt.Query{Source: algebra.NewRel("strong")},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(len(results), results[0].Rows(), db.Cardinality("strong"))
	// Output: 1 [[bock 6.5]] 1
}

// Active is true until the transaction commits or aborts.
func ExampleTx_Active() {
	db := beerDB()
	tx := db.Begin()
	fmt.Println(tx.Active())
	if err := tx.ExecXRA(`insert(beer, [('stout', 4.2)])`); err != nil {
		panic(err)
	}
	fmt.Println(tx.Active())
	if err := tx.Commit(); err != nil {
		panic(err)
	}
	fmt.Println(tx.Active(), db.Cardinality("beer"))
	// Output:
	// true
	// true
	// false 4
}

// Explain shows the physical plan the planner compiles from an expression
// as written.  The paper's Example 3.1 selection on brewery runs as a filter
// below the hash join, and the Example 3.2 group-by reads its two columns
// straight off the join: both equivalences are planner decisions, with no
// rewriting first.
func ExampleDB_Explain() {
	db := mra.Open()
	db.MustCreateRelation("beer",
		mra.Col("name", mra.String), mra.Col("brewery", mra.String), mra.Col("alcperc", mra.Float))
	db.MustCreateRelation("brewery",
		mra.Col("name", mra.String), mra.Col("city", mra.String), mra.Col("country", mra.String))
	db.MustExecXRA(`insert(beer, [
		('pils', 'guineken', 5.0), ('pils', 'brolsch', 5.2), ('bock', 'guineken', 6.5),
		('stout', 'guinness', 4.2), ('tripel', 'westmalle', 9.5)])`)
	db.MustExecXRA(`insert(brewery, [
		('guineken', 'amsterdam', 'netherlands'), ('brolsch', 'enschede', 'netherlands'),
		('guinness', 'dublin', 'ireland'), ('westmalle', 'malle', 'belgium')])`)
	for _, q := range []string{
		"project[%1](select[%6 = 'netherlands'](join[%2 = %4](beer, brewery)))",
		"groupby[(%6),AVG,%3](join[%2 = %4](beer, brewery))",
	} {
		ex, err := db.Explain(q)
		if err != nil {
			panic(err)
		}
		fmt.Println(ex.Physical)
	}
	// Output:
	// Project [%1]  (est~1 rows, act=3)
	// └─ HashJoin [%2 = %4] build=right  (est~1 rows, act=3)
	//    ├─ Scan beer  (est=5 rows)
	//    └─ Filter [%3 = 'netherlands']  (est~1 rows, act=2)
	//       └─ Scan brewery  (est=4 rows)
	// HashAggregate [(%6) AVG(%3)]  (est~1 rows, act=3)
	// └─ HashJoin [%2 = %4] build=right  (est~2 rows, act=5)
	//    ├─ Scan beer  (est=5 rows)
	//    └─ Scan brewery  (est=4 rows)
}
