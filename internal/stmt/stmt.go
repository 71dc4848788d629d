// Package stmt implements the statements and programs of the extended
// relational algebra language (Definitions 4.1 and 4.2 of Grefen & de By,
// ICDE 1994): insert, delete, update, assignment and query statements, and
// their sequential composition into programs.
//
// Statements execute against a Context — in practice a transaction (package
// txn) — that provides expression evaluation, access to the current database
// state, and the replacement operation ← used by the statement definitions.
package stmt

import (
	"errors"
	"fmt"
	"strings"

	"mra/internal/algebra"
	"mra/internal/multiset"
	"mra/internal/plan"
	"mra/internal/scalar"
	"mra/internal/schema"
	"mra/internal/tuple"
	"mra/internal/value"
)

// ErrStatement is the sentinel wrapped by statement execution errors.
var ErrStatement = errors.New("statement error")

// Context is the execution environment of a statement: a view of the current
// (intermediate) database state plus the replacement and output operations.
// Transactions implement it.
type Context interface {
	// Catalog resolves relation names (database relations and temporaries) to
	// schemas for validation.
	Catalog() algebra.Catalog
	// Evaluate evaluates a relational expression against the current
	// intermediate state.
	Evaluate(e algebra.Expr) (*multiset.Relation, error)
	// Current returns the current instance of a named relation (database
	// relation or temporary).
	Current(name string) (*multiset.Relation, bool)
	// Replace implements R ← E for a database relation.
	Replace(name string, r *multiset.Relation) error
	// Assign implements the assignment statement R = E, binding a temporary
	// relational variable visible for the remainder of the program.
	Assign(name string, r *multiset.Relation) error
	// Output delivers a query statement's result to the user of the database
	// system.
	Output(r *multiset.Relation)
}

// Statement is a single extended relational algebra statement.
type Statement interface {
	// Execute runs the statement against the context.
	Execute(ctx Context) error
	// String renders the statement in XRA-like surface syntax.
	String() string
}

// Program is a sequential composition of statements (Definition 4.2).
type Program []Statement

// Execute runs the program's statements in order, stopping at the first error.
func (p Program) Execute(ctx Context) error {
	for i, s := range p {
		if err := s.Execute(ctx); err != nil {
			return fmt.Errorf("statement %d (%s): %w", i+1, s, err)
		}
	}
	return nil
}

// String renders the program one statement per line, terminated by semicolons.
func (p Program) String() string {
	var b strings.Builder
	for _, s := range p {
		b.WriteString(s.String())
		b.WriteString(";\n")
	}
	return b.String()
}

// targetRelation resolves the target database relation of an update-class
// statement and checks the expression's compatibility with it.
func targetRelation(ctx Context, name string, e algebra.Expr) (*multiset.Relation, schema.Relation, error) {
	cur, ok := ctx.Current(name)
	if !ok {
		return nil, schema.Relation{}, fmt.Errorf("%w: unknown relation %q", ErrStatement, name)
	}
	es, err := e.Schema(ctx.Catalog())
	if err != nil {
		return nil, schema.Relation{}, err
	}
	if !cur.Schema().Compatible(es) {
		return nil, schema.Relation{}, fmt.Errorf("%w: expression schema %s incompatible with relation %q %s",
			ErrStatement, es, name, cur.Schema())
	}
	return cur, cur.Schema(), nil
}

// replaceApplying performs R ← (R − remove) ⊎ add, the form every
// update-class statement of Definition 4.1 takes: the pair is applied to a
// clone of the current instance cur, which costs the pages it lands on.
// Either side may be nil.
func replaceApplying(ctx Context, name string, cur, add, remove *multiset.Relation) error {
	out := cur.Clone()
	out.ApplyDelta(add, remove)
	return ctx.Replace(name, out)
}

// Insert is the statement insert(R, E): R ← R ⊎ E (Definition 4.1).
type Insert struct {
	// Target is the database relation R.
	Target string
	// Source is the expression E of the same schema as R.
	Source algebra.Expr
}

// Execute implements Statement.
func (s Insert) Execute(ctx Context) error {
	cur, _, err := targetRelation(ctx, s.Target, s.Source)
	if err != nil {
		return err
	}
	add, err := ctx.Evaluate(s.Source)
	if err != nil {
		return err
	}
	return replaceApplying(ctx, s.Target, cur, add, nil)
}

// String implements Statement.
func (s Insert) String() string { return fmt.Sprintf("insert(%s, %s)", s.Target, s.Source) }

// Delete is the statement delete(R, E): R ← R − E (Definition 4.1).
type Delete struct {
	// Target is the database relation R.
	Target string
	// Source is the expression E of the same schema as R; each of its
	// occurrences removes one occurrence of R, clamping at zero.
	Source algebra.Expr
}

// Execute implements Statement.
func (s Delete) Execute(ctx Context) error {
	cur, _, err := targetRelation(ctx, s.Target, s.Source)
	if err != nil {
		return err
	}
	rem, err := ctx.Evaluate(s.Source)
	if err != nil {
		return err
	}
	return replaceApplying(ctx, s.Target, cur, nil, rem)
}

// String implements Statement.
func (s Delete) String() string { return fmt.Sprintf("delete(%s, %s)", s.Target, s.Source) }

// Update is the statement update(R, E, a):
//
//	R ← (R − E) ⊎ π_a(R ∩ E)
//
// where a is a structure-preserving extended projection list with the same
// schema as E (Definition 4.1).  The paper's Example 4.1 — raising Guineken's
// alcohol percentages by 10% — is an Update whose Items list is
// (%1, %2, %3 * 1.1).  Execute applies it as the pair
// (π_a(R ∩ E), R ∩ E): R ∩ E leaves R and its image under a arrives.
type Update struct {
	// Target is the database relation R.
	Target string
	// Selection is the expression E selecting the tuples to modify; it must
	// have the same schema as R.
	Selection algebra.Expr
	// Items is the attribute expression list a; it must have exactly one item
	// per attribute of R and preserve the relation's schema.
	Items []scalar.Expr
}

// Execute implements Statement.
func (s Update) Execute(ctx Context) error {
	cur, curSchema, err := targetRelation(ctx, s.Target, s.Selection)
	if err != nil {
		return err
	}
	if len(s.Items) != curSchema.Arity() {
		return fmt.Errorf("%w: update list has %d items, relation %q has arity %d",
			ErrStatement, len(s.Items), s.Target, curSchema.Arity())
	}
	// Structure preservation: every item must be typeable and keep its
	// attribute's domain (numeric domains may interchange).
	for i, item := range s.Items {
		k, err := item.Type(curSchema)
		if err != nil {
			return fmt.Errorf("%w: update item %d: %v", ErrStatement, i+1, err)
		}
		want := curSchema.Attribute(i).Type
		if k == want || (k.Numeric() && want.Numeric()) || k == value.KindNull {
			continue
		}
		return fmt.Errorf("%w: update item %d produces %s, attribute %q expects %s",
			ErrStatement, i+1, k, curSchema.Attribute(i).Name, want)
	}

	sel, err := ctx.Evaluate(s.Selection)
	if err != nil {
		return err
	}
	// One pass over E's distinct tuples builds the pair: R's tuple t equal to
	// E's leaves R min(E(t), R(t)) times, and π_a(t) arrives as often.  The
	// items read R's tuple, not E's spelling of it (2^53 + 1 is not
	// 2^53.0 + 1).  Removing R ∩ E rather than E is exact, since
	// R − E = R − (R ∩ E) pointwise.
	hit, add := multiset.New(curSchema), multiset.New(curSchema)
	var itemErr error
	sel.Each(func(e tuple.Tuple, n uint64) bool {
		t, held := cur.Lookup(e)
		m := min(n, held)
		if m == 0 {
			return true
		}
		vals := make([]value.Value, len(s.Items))
		for i, item := range s.Items {
			if vals[i], itemErr = item.Eval(t); itemErr != nil {
				return false
			}
		}
		hit.Add(t, m)
		add.Add(tuple.FromSlice(vals), m)
		return true
	})
	if itemErr != nil {
		return itemErr
	}
	return replaceApplying(ctx, s.Target, cur, add, hit)
}

// String implements Statement.
func (s Update) String() string {
	items := make([]string, len(s.Items))
	for i, it := range s.Items {
		items[i] = it.String()
	}
	return fmt.Sprintf("update(%s, %s, (%s))", s.Target, s.Selection, strings.Join(items, ", "))
}

// Assign is the assignment statement R = E: it binds the multi-set E to a new,
// implicitly defined temporary relational variable R visible for the remainder
// of the program (Definition 4.1).
type Assign struct {
	// Name is the temporary relation's name.
	Name string
	// Source is the expression to materialise.
	Source algebra.Expr
}

// Execute implements Statement.
func (s Assign) Execute(ctx Context) error {
	r, err := ctx.Evaluate(s.Source)
	if err != nil {
		return err
	}
	return ctx.Assign(s.Name, r)
}

// String implements Statement.
func (s Assign) String() string { return fmt.Sprintf("%s = %s", s.Name, s.Source) }

// Query is the query statement ?E: it sends the result of E to the user of
// the database system and has no effect on the database (Definition 4.1).
type Query struct {
	// Source is the expression E.
	Source algebra.Expr
	// Mods is a SQL query's ORDER BY / OFFSET / LIMIT clause.  Relations
	// are unordered, so the clause only fixes which occurrences are
	// presented and in what order; an inactive clause presents the whole
	// result unordered.
	Mods plan.Clause
}

// Execute implements Statement.  A query with an active clause needs a
// context that also implements Query (transactions do): it evaluates the
// expression under a Sort root that executes the clause and delivers the
// result together with its order.
func (s Query) Execute(ctx Context) error {
	if s.Mods.Active() {
		q, ok := ctx.(interface {
			Query(e algebra.Expr, clause plan.Clause) error
		})
		if !ok {
			return fmt.Errorf("%w: context does not support ordered queries", ErrStatement)
		}
		return q.Query(s.Source, s.Mods)
	}
	r, err := ctx.Evaluate(s.Source)
	if err != nil {
		return err
	}
	ctx.Output(r)
	return nil
}

// String implements Statement.
func (s Query) String() string { return fmt.Sprintf("?%s", s.Source) }

// Analyze is the statement analyze(R): it (re)builds the per-column
// statistics summary — distinct-value sketches, equi-depth histograms,
// null/min/max — of a database relation, feeding the planner's cost model.
// It has no effect on relation contents.  Contexts without a statistics
// subsystem reject it.
type Analyze struct {
	// Target is the relation to summarise; empty means every relation the
	// context can see, printed and parsed as analyze().
	Target string
}

// Execute implements Statement.  The context must additionally implement
// AnalyzeRelation (transactions do); otherwise the statement fails.
func (s Analyze) Execute(ctx Context) error {
	a, ok := ctx.(interface{ AnalyzeRelation(name string) error })
	if !ok {
		return fmt.Errorf("%w: context does not support analyze", ErrStatement)
	}
	if err := a.AnalyzeRelation(s.Target); err != nil {
		return fmt.Errorf("%w: %v", ErrStatement, err)
	}
	return nil
}

// String implements Statement.
func (s Analyze) String() string { return fmt.Sprintf("analyze(%s)", s.Target) }
