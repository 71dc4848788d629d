package txn

import (
	"fmt"
	"testing"

	"mra/internal/algebra"
	"mra/internal/multiset"
	"mra/internal/scalar"
	"mra/internal/stmt"
	"mra/internal/storage"
	"mra/internal/value"
	"mra/internal/workload"
)

// benchBank returns a manager over an account relation of n rows that
// ANALYZE has keyed on id, as the served bank is, so `where id = K` plans an
// IndexScan and a write transaction times the keyed write path, not a scan.
func benchBank(b *testing.B, n int) *Manager {
	b.Helper()
	db := storage.NewDatabase()
	if err := db.CreateRelation(workload.AccountsSchema()); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Apply(map[string]*multiset.Relation{"account": workload.Accounts(n, 7)}); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Analyze("account"); err != nil {
		b.Fatal(err)
	}
	if r, _ := db.Relation("account"); r == nil {
		b.Fatal("no account relation")
	} else if col, ok := r.KeyColumn(); !ok || col != 0 {
		b.Fatalf("ANALYZE keyed account on column %d (%v), want id", col, ok)
	}
	return NewManager(db)
}

// addToBalance is the update `set balance = balance + amt where id = K`.
func addToBalance(id int, amt float64) stmt.Update {
	return stmt.Update{
		Target: "account",
		Selection: algebra.NewSelect(
			scalar.NewCompare(value.CmpEq, scalar.NewAttr(0), scalar.NewConst(value.NewInt(int64(id)))),
			algebra.NewRel("account")),
		Items: []scalar.Expr{
			scalar.NewAttr(0), scalar.NewAttr(1),
			scalar.NewArith(value.OpAdd, scalar.NewAttr(2), scalar.NewConst(value.NewFloat(amt))),
		},
	}
}

// BenchmarkCommitPointUpdate is one write transaction on a 4096-row account
// relation keyed on id: Begin, `update … where id = K`, Commit — the keyed
// write path (snapshot, index lookup, Diff, key-log validation, install)
// without the wire.
func BenchmarkCommitPointUpdate(b *testing.B) {
	const accounts = 4096
	m := benchBank(b, accounts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := m.Begin()
		if err := tx.Exec(addToBalance(i%accounts, 1)); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommitTransfer is a bank transfer: one transaction of two keyed
// updates, debiting one account and crediting another, then Commit — the
// write half of the served bank mix, at two relation sizes.
func BenchmarkCommitTransfer(b *testing.B) {
	for _, accounts := range []int{4096, 65536} {
		b.Run(fmt.Sprintf("accounts=%d", accounts), func(b *testing.B) {
			m := benchBank(b, accounts)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				from, to := (i*7919)%accounts, (i*7919+1)%accounts
				amt := float64(1+i%500) / 100
				tx := m.Begin()
				if err := tx.Exec(addToBalance(from, -amt)); err != nil {
					b.Fatal(err)
				}
				if err := tx.Exec(addToBalance(to, amt)); err != nil {
					b.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
