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
