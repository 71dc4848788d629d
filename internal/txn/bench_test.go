package txn

import (
	"testing"

	"mra/internal/algebra"
	"mra/internal/multiset"
	"mra/internal/scalar"
	"mra/internal/stmt"
	"mra/internal/storage"
	"mra/internal/value"
	"mra/internal/workload"
)

// BenchmarkCommitPointUpdate is one write transaction on a 4096-row account
// relation: Begin, `update … where id = K`, Commit — a transfer's write path
// (snapshot, evaluation, Diff, key-log validation, install) without the wire.
func BenchmarkCommitPointUpdate(b *testing.B) {
	const accounts = 4096
	db := storage.NewDatabase()
	if err := db.CreateRelation(workload.AccountsSchema()); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Apply(map[string]*multiset.Relation{"account": workload.Accounts(accounts, 7)}); err != nil {
		b.Fatal(err)
	}
	m := NewManager(db)
	items := []scalar.Expr{
		scalar.NewAttr(0), scalar.NewAttr(1),
		scalar.NewArith(value.OpAdd, scalar.NewAttr(2), scalar.NewConst(value.NewFloat(1))),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel := algebra.NewSelect(
			scalar.NewCompare(value.CmpEq, scalar.NewAttr(0), scalar.NewConst(value.NewInt(int64(i%accounts)))),
			algebra.NewRel("account"))
		tx := m.Begin()
		if err := tx.Exec(stmt.Update{Target: "account", Selection: sel, Items: items}); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}
