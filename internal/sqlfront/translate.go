package sqlfront

import (
	"fmt"
	"strings"

	"mra/internal/algebra"
	"mra/internal/lex"
	"mra/internal/plan"
	"mra/internal/scalar"
	"mra/internal/schema"
	"mra/internal/stmt"
	"mra/internal/value"
)

// Query is a compiled SELECT: the algebra expression plus its presentation
// clause.
type Query struct {
	// Expr is the translated multi-set algebra expression.
	Expr algebra.Expr
	// Mods is the ORDER BY / OFFSET / LIMIT clause, executed by the plan's
	// Sort root.
	Mods plan.Clause
}

// CompileQuery parses a SELECT statement and translates it into a multi-set
// algebra expression (plus its presentation clause) over the given catalog.
func CompileQuery(sql string, cat algebra.Catalog) (Query, error) {
	p, err := newParser(sql)
	if err != nil {
		return Query{}, err
	}
	q, err := p.parseSelect()
	if err == nil {
		err = p.expectEnd()
	}
	if err != nil {
		return Query{}, err
	}
	return translateQuery(q, cat)
}

// CompileStatement parses any supported SQL statement.  Queries are wrapped in
// a query statement (?E) that carries their ORDER BY / OFFSET / LIMIT clause;
// INSERT, DELETE and UPDATE become the corresponding extended relational
// algebra statements of Definition 4.1.
func CompileStatement(sql string, cat algebra.Catalog) (stmt.Statement, error) {
	p, err := newParser(sql)
	if err != nil {
		return nil, err
	}
	node, err := p.parseStatement()
	if err == nil {
		err = p.expectEnd()
	}
	if err != nil {
		return nil, err
	}
	return translateStatement(node, cat)
}

// translateStatement translates one parsed statement.
func translateStatement(node any, cat algebra.Catalog) (stmt.Statement, error) {
	switch n := node.(type) {
	case *selectQuery:
		q, err := translateQuery(n, cat)
		if err != nil {
			return nil, err
		}
		return stmt.Query{Source: q.Expr, Mods: q.Mods}, nil
	case *insertStmt:
		return translateInsert(n, cat)
	case *deleteStmt:
		return translateDelete(n, cat)
	case *updateStmt:
		return translateUpdate(n, cat)
	case *analyzeStmt:
		if n.table != "" {
			if _, ok := cat.RelationSchema(n.table); !ok {
				return nil, errf(lex.Pos{}, "unknown table %q", n.table)
			}
		}
		return stmt.Analyze{Target: n.table}, nil
	default:
		return nil, errf(lex.Pos{}, "unsupported statement %T", node)
	}
}

// CompileScript compiles a semicolon-separated sequence of SQL statements into
// one extended relational algebra program, parsing them from one token
// stream of the whole script, so error positions count lines and columns
// from the script's start.  Each query statement carries its own clause; the
// second return value repeats those clauses, one per query statement in
// execution order.
func CompileScript(sql string, cat algebra.Catalog) (stmt.Program, []plan.Clause, error) {
	p, err := newParser(sql)
	if err != nil {
		return nil, nil, err
	}
	var prog stmt.Program
	var clauses []plan.Clause
	for {
		for p.Accept(";") {
		}
		if p.Peek().Kind == lex.EOF {
			return prog, clauses, nil
		}
		start := p.Idx
		s, err := p.scriptStatement(cat)
		if err != nil {
			return nil, nil, fmt.Errorf("in %q: %w", p.statementText(start), err)
		}
		prog = append(prog, s)
		if q, isQuery := s.(stmt.Query); isQuery {
			clauses = append(clauses, q.Mods)
		}
	}
}

// scriptStatement compiles the script's next statement, which ";" or the
// end of input must follow.
func (p *parser) scriptStatement(cat algebra.Catalog) (stmt.Statement, error) {
	node, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if t := p.Peek(); !p.Accept(";") && t.Kind != lex.EOF {
		return nil, errf(t.Pos, "unexpected %s after end of statement", t)
	}
	return translateStatement(node, cat)
}

// statementText is the source of the script statement whose first token is
// p.Toks[start]: the text up to the next ";" or the end of input.
func (p *parser) statementText(start int) string {
	end := start
	for !p.Toks[end].Is(";") && p.Toks[end].Kind != lex.EOF {
		end++
	}
	return strings.TrimSpace(p.Src[p.Toks[start].Off:p.Toks[end].Off])
}

// ---------------------------------------------------------------------------
// Name resolution environment
// ---------------------------------------------------------------------------

// binding is one FROM-clause table: its alias, schema and attribute offset in
// the concatenated schema.
type binding struct {
	alias  string
	rel    schema.Relation
	offset int
}

// env is the name-resolution environment of a query.
type env struct {
	bindings []binding
	arity    int
}

// column maps a column reference to its 0-based position in the
// concatenated schema.
func (e *env) column(c colRef) (int, error) {
	matches := 0
	pos := -1
	for _, b := range e.bindings {
		if c.qualifier != "" && !strings.EqualFold(c.qualifier, b.alias) {
			continue
		}
		if i := b.rel.IndexOf(c.name); i >= 0 {
			matches++
			pos = b.offset + i
		}
	}
	switch matches {
	case 0:
		return 0, errf(c.at, "unknown column %q", c.display())
	case 1:
		return pos, nil
	default:
		return 0, errf(c.at, "ambiguous column %q", c.display())
	}
}

// aggregate rejects an aggregate call: outside a grouped query's SELECT list
// and HAVING clause there is no aggregate column to refer to.
func (e *env) aggregate(n aggExpr) (int, error) {
	return 0, errf(n.at, "aggregate %s is only allowed in the SELECT list of a grouped query", n.fn)
}

// schemaOf returns the concatenated schema of all bindings.
func (e *env) schemaOf() schema.Relation {
	out := schema.Anonymous()
	for _, b := range e.bindings {
		out = out.Concat(b.rel)
	}
	return out
}

func (c colRef) display() string {
	if c.qualifier != "" {
		return c.qualifier + "." + c.name
	}
	return c.name
}

// buildFrom resolves the FROM clause into an environment and the algebra
// expression producing the concatenated relation (products for comma joins,
// condition joins for explicit JOIN ... ON).
func buildFrom(refs []tableRef, cat algebra.Catalog) (*env, algebra.Expr, error) {
	if len(refs) == 0 {
		return nil, nil, errf(lex.Pos{}, "FROM clause is empty")
	}
	e := &env{}
	var expr algebra.Expr
	for _, ref := range refs {
		rel, ok := cat.RelationSchema(ref.name)
		if !ok {
			return nil, nil, errf(ref.at, "unknown table %q", ref.name)
		}
		// Alias resolution uses the alias name in place of the relation name.
		aliased := rel.Rename(ref.alias)
		e.bindings = append(e.bindings, binding{alias: ref.alias, rel: aliased, offset: e.arity})
		e.arity += rel.Arity()
		next := algebra.Expr(algebra.NewRel(ref.name))
		if expr == nil {
			expr = next
			if ref.on != nil {
				return nil, nil, errf(ref.at, "the first table of a FROM clause cannot carry an ON condition")
			}
			continue
		}
		if ref.on != nil {
			cond, err := translateBool(ref.on, e)
			if err != nil {
				return nil, nil, err
			}
			expr = algebra.NewJoin(cond, expr, next)
		} else {
			expr = algebra.NewProduct(expr, next)
		}
	}
	return e, expr, nil
}

// ---------------------------------------------------------------------------
// Expression translation
// ---------------------------------------------------------------------------

// resolver maps the column references and aggregate calls of an expression
// to attribute positions: env over a FROM clause, havingEnv over a
// group-by's output.
type resolver interface {
	column(colRef) (int, error)
	aggregate(aggExpr) (int, error)
}

// translateScalar converts a SQL scalar expression into a scalar.Expr over
// the positions r resolves.
func translateScalar(e sqlExpr, r resolver) (scalar.Expr, error) {
	switch n := e.(type) {
	case colRef:
		pos, err := r.column(n)
		if err != nil {
			return nil, err
		}
		return scalar.NewAttr(pos), nil
	case aggExpr:
		pos, err := r.aggregate(n)
		if err != nil {
			return nil, err
		}
		return scalar.NewAttr(pos), nil
	case litExpr:
		return scalar.NewConst(n.val), nil
	case binExpr:
		left, err := translateScalar(n.left, r)
		if err != nil {
			return nil, err
		}
		right, err := translateScalar(n.right, r)
		if err != nil {
			return nil, err
		}
		op, err := value.ParseBinaryOp(n.op)
		if err != nil {
			return nil, err
		}
		return scalar.NewArith(op, left, right), nil
	default: // cmpExpr, logicExpr, notExpr
		return nil, errf(lex.Pos{}, "boolean expression used where a value is required")
	}
}

// translateBool converts a SQL boolean expression into a predicate over the
// positions r resolves.
func translateBool(e sqlExpr, r resolver) (scalar.Predicate, error) {
	switch n := e.(type) {
	case cmpExpr:
		left, err := translateScalar(n.left, r)
		if err != nil {
			return nil, err
		}
		right, err := translateScalar(n.right, r)
		if err != nil {
			return nil, err
		}
		op, err := value.ParseCompareOp(n.op)
		if err != nil {
			return nil, errf(n.at, "%v", err)
		}
		return scalar.NewCompare(op, left, right), nil
	case logicExpr:
		left, err := translateBool(n.left, r)
		if err != nil {
			return nil, err
		}
		right, err := translateBool(n.right, r)
		if err != nil {
			return nil, err
		}
		if n.op == "and" {
			return scalar.And{Left: left, Right: right}, nil
		}
		return scalar.Or{Left: left, Right: right}, nil
	case notExpr:
		inner, err := translateBool(n.operand, r)
		if err != nil {
			return nil, err
		}
		return scalar.Not{Operand: inner}, nil
	case litExpr:
		if n.val.Kind() == value.KindBool {
			if n.val.Bool() {
				return scalar.True{}, nil
			}
			return scalar.False{}, nil
		}
	}
	return nil, errf(lex.Pos{}, "value used where a condition is required")
}

// ---------------------------------------------------------------------------
// SELECT translation
// ---------------------------------------------------------------------------

// translateQuery translates the SELECT body and resolves its ORDER BY /
// LIMIT / OFFSET clauses.  Keys that name an output column (or a 1-based
// position) sort the result as-is; any other key expression is computed as a
// hidden trailing projection column — the plan's Sort root orders on it and
// drops it from the result.  On a plain
// SELECT a hidden key may be any scalar expression over the FROM schema; on a
// grouped query it must be an aggregate call or a grouping column, carried as
// a hidden trailing aggregate (or grouping) column of the Γ translation.
// DISTINCT queries still require output-column keys — extra sort columns
// would change what DISTINCT deduplicates — but an ORDER BY aggregate that
// repeats a SELECT-list aggregate resolves to that output column and needs no
// hidden column at all.
func translateQuery(q *selectQuery, cat algebra.Catalog) (Query, error) {
	expr, err := translateSelect(q, cat, nil)
	if err != nil {
		return Query{}, err
	}
	out := Query{Expr: expr, Mods: plan.Clause{Offset: q.offset, Limit: q.limit, HasLimit: q.hasLimit}}
	if len(q.orderBy) == 0 {
		return out, nil
	}
	outSchema, err := expr.Schema(cat)
	if err != nil {
		return Query{}, err
	}
	grouped := len(q.groupBy) > 0 || hasAggregates(q)
	var hidden []sqlExpr
	for _, item := range q.orderBy {
		col := item.pos - 1
		switch {
		case item.pos > 0:
			if item.pos > outSchema.Arity() {
				return Query{}, errf(item.at, "ORDER BY position %d out of range for %d output columns", item.pos, outSchema.Arity())
			}
		case isOutputColumn(item.expr, outSchema):
			col = outSchema.IndexOf(item.expr.(colRef).name)
		default:
			// A key repeating a SELECT-list aggregate sorts on that output
			// column directly.
			if pos := matchSelectAgg(q, item.expr); grouped && pos >= 0 {
				col = pos
				break
			}
			// The key is not an output column: compute it as a hidden trailing
			// column when the query shape allows.
			if q.distinct {
				return Query{}, errf(item.at, "ORDER BY with DISTINCT must use an output column or position")
			}
			col = outSchema.Arity() + len(hidden)
			hidden = append(hidden, item.expr)
		}
		out.Mods.Order = append(out.Mods.Order, plan.SortKey{Col: col, Desc: item.desc})
	}
	if len(hidden) > 0 {
		// Re-translate with the hidden key columns appended to the projection.
		expr, err = translateSelect(q, cat, hidden)
		if err != nil {
			return Query{}, err
		}
		out.Expr = expr
		out.Mods.Hidden = len(hidden)
	}
	return out, nil
}

// matchSelectAgg returns the output position of a SELECT-list aggregate the
// expression repeats (COUNT(x) matches any COUNT — the attribute parameter is
// a dummy), or -1.  Grouped output columns correspond to SELECT items
// one-to-one, so the item index is the output position.
func matchSelectAgg(q *selectQuery, e sqlExpr) int {
	key, ok := e.(aggExpr)
	if !ok {
		return -1
	}
	kfn, err := algebra.ParseAggregate(key.fn)
	if err != nil {
		return -1
	}
	for i, item := range q.items {
		have, ok := item.expr.(aggExpr)
		if !ok {
			continue
		}
		hfn, err := algebra.ParseAggregate(have.fn)
		if err != nil || hfn != kfn {
			continue
		}
		if kfn == algebra.AggCount {
			return i
		}
		if have.star != key.star {
			continue
		}
		a, aok := have.arg.(colRef)
		b, bok := key.arg.(colRef)
		if aok && bok && strings.EqualFold(a.qualifier, b.qualifier) && strings.EqualFold(a.name, b.name) {
			return i
		}
	}
	return -1
}

// isOutputColumn reports whether an ORDER BY key expression is a bare
// unqualified column name of the output schema (output columns are anonymous
// after projection, so qualified references never match).
func isOutputColumn(e sqlExpr, out schema.Relation) bool {
	c, ok := e.(colRef)
	return ok && c.qualifier == "" && out.IndexOf(c.name) >= 0
}

// hasAggregates reports whether the SELECT list contains an aggregate call.
func hasAggregates(q *selectQuery) bool {
	for _, item := range q.items {
		if _, ok := item.expr.(aggExpr); ok {
			return true
		}
	}
	return false
}

// translateSelect translates the SELECT body.  hidden, when non-empty, lists
// ORDER BY key expressions to append as unnamed trailing projection columns:
// arbitrary scalar expressions over the FROM schema on a plain SELECT,
// aggregate calls or grouping columns on a grouped one.  The caller
// guarantees the query is not DISTINCT when hidden columns are requested.
func translateSelect(q *selectQuery, cat algebra.Catalog, hidden []sqlExpr) (algebra.Expr, error) {
	env, expr, err := buildFrom(q.from, cat)
	if err != nil {
		return nil, err
	}
	if q.where != nil {
		cond, err := translateBool(q.where, env)
		if err != nil {
			return nil, err
		}
		expr = algebra.NewSelect(cond, expr)
	}

	switch {
	case len(q.groupBy) > 0 || hasAggregates(q):
		expr, err = translateGrouped(q, env, expr, hidden)
		if err != nil {
			return nil, err
		}
	case q.star && len(hidden) == 0:
		// SELECT *: the concatenated relation as-is.
	default:
		items := make([]scalar.Expr, 0, len(q.items)+len(hidden))
		names := make([]string, 0, len(q.items)+len(hidden))
		if q.star {
			// SELECT * with hidden sort keys: an identity projection of every
			// FROM column, so the keys can ride along as extra columns.
			s := env.schemaOf()
			for i := 0; i < s.Arity(); i++ {
				items = append(items, scalar.NewAttr(i))
				names = append(names, s.Attribute(i).Name)
			}
		} else {
			for _, item := range q.items {
				se, err := translateScalar(item.expr, env)
				if err != nil {
					return nil, err
				}
				items = append(items, se)
				names = append(names, outputName(item, env))
			}
		}
		for _, h := range hidden {
			se, err := translateScalar(h, env)
			if err != nil {
				return nil, err
			}
			items = append(items, se)
			names = append(names, "")
		}
		expr = algebra.NewExtProject(items, names, expr)
	}

	if q.distinct {
		expr = algebra.NewUnique(expr)
	}
	return expr, nil
}

// outputName picks the output attribute name of a select item: the alias if
// given, the column name for plain references, empty otherwise.
func outputName(item selectItem, env *env) string {
	if item.alias != "" {
		return item.alias
	}
	if c, ok := item.expr.(colRef); ok {
		if pos, err := env.column(c); err == nil {
			return env.schemaOf().Attribute(pos).Name
		}
	}
	return ""
}

// translateGrouped handles GROUP BY queries and global aggregates.  The SELECT
// list may mix grouping columns and any number of aggregate calls, in any
// order — the multi-aggregate groupby operator computes them all in one pass.
// HAVING aggregates and hidden ORDER BY aggregate keys that do not repeat a
// SELECT aggregate ride as extra trailing aggregate columns: HAVING-only ones
// are stripped by the final projection, ORDER BY ones stay trailing so the
// facade can sort on them and strip them at presentation.  A GROUP BY whose
// query uses no aggregate at all translates to a distinct projection
// δ(π_α(E)) — one output row per group, as SQL prescribes.
func translateGrouped(q *selectQuery, env *env, input algebra.Expr, hidden []sqlExpr) (algebra.Expr, error) {
	if q.star {
		return nil, errf(lex.Pos{}, "SELECT * cannot be combined with GROUP BY or aggregates")
	}
	// Resolve grouping columns.
	groupCols := make([]int, 0, len(q.groupBy))
	for _, c := range q.groupBy {
		pos, err := env.column(c)
		if err != nil {
			return nil, err
		}
		groupCols = append(groupCols, pos)
	}

	var aggs []algebra.AggSpec
	// resolveAggSpec resolves one aggregate call to its (function, attribute)
	// pair over the FROM schema.
	resolveAggSpec := func(n aggExpr) (algebra.AggSpec, error) {
		fn, err := algebra.ParseAggregate(n.fn)
		if err != nil {
			return algebra.AggSpec{}, errf(n.at, "%v", err)
		}
		col := 0
		if !n.star {
			c, ok := n.arg.(colRef)
			if !ok {
				return algebra.AggSpec{}, errf(n.at, "aggregate arguments must be plain columns")
			}
			col, err = env.column(c)
			if err != nil {
				return algebra.AggSpec{}, err
			}
		} else if fn != algebra.AggCount {
			return algebra.AggSpec{}, errf(n.at, "only COUNT may take * as its argument")
		}
		return algebra.AggSpec{Fn: fn, Col: col}, nil
	}
	// findAgg returns the index of an equivalent already-collected aggregate
	// (COUNT's attribute is a dummy, so any COUNT matches any other), or -1.
	findAgg := func(sp algebra.AggSpec) int {
		for i, have := range aggs {
			if have.Fn != sp.Fn {
				continue
			}
			if sp.Fn == algebra.AggCount || have.Col == sp.Col {
				return i
			}
		}
		return -1
	}
	groupIndex := func(pos int) int {
		for gi, g := range groupCols {
			if g == pos {
				return gi
			}
		}
		return -1
	}

	// Classify the SELECT list.  outRef records, per output column, whether it
	// is a grouping column (group ≥ 0) or an aggregate (agg ≥ 0).
	type outRef struct{ group, agg int }
	outs := make([]outRef, 0, len(q.items))
	used := make(map[string]bool, len(groupCols)+len(q.items))
	fromSchema := env.schemaOf()
	for _, g := range groupCols {
		if n := fromSchema.Attribute(g).Name; n != "" {
			used[strings.ToLower(n)] = true
		}
	}
	for _, item := range q.items {
		switch n := item.expr.(type) {
		case aggExpr:
			sp, err := resolveAggSpec(n)
			if err != nil {
				return nil, err
			}
			name := item.alias
			if name == "" {
				// Defaulted names that would collide with an earlier output
				// column stay anonymous instead of failing schema validation.
				name = strings.ToLower(sp.Fn.String())
				if used[name] {
					name = ""
				}
			}
			if name != "" {
				used[strings.ToLower(name)] = true
			}
			sp.Name = name
			aggs = append(aggs, sp)
			outs = append(outs, outRef{group: -1, agg: len(aggs) - 1})
		case colRef:
			pos, err := env.column(n)
			if err != nil {
				return nil, err
			}
			gi := groupIndex(pos)
			if gi == -1 {
				return nil, errf(n.at, "column %q must appear in the GROUP BY clause", n.display())
			}
			outs = append(outs, outRef{group: gi, agg: -1})
		default:
			return nil, errf(lex.Pos{}, "grouped queries may select grouping columns and aggregate calls only")
		}
	}

	// HAVING resolves against the groupby output schema; aggregates it uses
	// that are not in the SELECT list append hidden specs.
	var havingCond scalar.Predicate
	if q.having != nil {
		henv := &havingEnv{groupCols: groupCols, src: env, aggs: &aggs, spec: resolveAggSpec, find: findAgg}
		cond, err := translateBool(q.having, henv)
		if err != nil {
			return nil, err
		}
		havingCond = cond
	}

	// Hidden ORDER BY keys: aggregate calls (appended as trailing specs when
	// they do not repeat a SELECT aggregate) or grouping columns.
	hiddenRefs := make([]outRef, 0, len(hidden))
	for _, h := range hidden {
		switch n := h.(type) {
		case aggExpr:
			sp, err := resolveAggSpec(n)
			if err != nil {
				return nil, err
			}
			ai := findAgg(sp)
			if ai == -1 {
				aggs = append(aggs, sp) // anonymous hidden column
				ai = len(aggs) - 1
			}
			hiddenRefs = append(hiddenRefs, outRef{group: -1, agg: ai})
		case colRef:
			pos, err := env.column(n)
			if err != nil {
				return nil, err
			}
			gi := groupIndex(pos)
			if gi == -1 {
				return nil, errf(n.at, "ORDER BY on a grouped query must use an output column, a grouping column, or an aggregate")
			}
			hiddenRefs = append(hiddenRefs, outRef{group: gi, agg: -1})
		default:
			return nil, errf(lex.Pos{}, "ORDER BY on a grouped query must use an output column, a grouping column, or an aggregate")
		}
	}

	if len(aggs) == 0 {
		// GROUP BY with no aggregate anywhere: one output row per group is a
		// distinct projection.  Positions in δ(π_α(E)) coincide with the
		// havingEnv numbering (grouping columns first), so the HAVING
		// condition applies unchanged.
		var result algebra.Expr = algebra.NewUnique(algebra.NewProject(groupCols, input))
		if havingCond != nil {
			result = algebra.NewSelect(havingCond, result)
		}
		finalCols := make([]int, 0, len(outs)+len(hiddenRefs))
		for _, o := range append(outs, hiddenRefs...) {
			finalCols = append(finalCols, o.group)
		}
		if isIdentityCols(finalCols, len(groupCols)) {
			return result, nil
		}
		return algebra.NewProject(finalCols, result), nil
	}

	grouped := algebra.GroupBy{GroupCols: groupCols, Aggs: aggs, Input: input}
	var result algebra.Expr = grouped
	if havingCond != nil {
		result = algebra.NewSelect(havingCond, result)
	}

	// Project the groupby output (grouping columns first, aggregates after,
	// both in operator order) into SELECT order, with hidden ORDER BY columns
	// trailing; HAVING-only aggregate columns are dropped here.
	finalCols := make([]int, 0, len(outs)+len(hiddenRefs))
	for _, o := range append(outs, hiddenRefs...) {
		if o.agg >= 0 {
			finalCols = append(finalCols, len(groupCols)+o.agg)
		} else {
			finalCols = append(finalCols, o.group)
		}
	}
	if isIdentityCols(finalCols, len(groupCols)+len(aggs)) {
		return result, nil
	}
	return algebra.NewProject(finalCols, result), nil
}

// isIdentityCols reports whether cols is exactly 0..arity-1, i.e. a
// projection that would keep every column in place.
func isIdentityCols(cols []int, arity int) bool {
	if len(cols) != arity {
		return false
	}
	for i, c := range cols {
		if c != i {
			return false
		}
	}
	return true
}

// havingEnv resolves HAVING-clause references against the output schema of a
// group-by: grouping columns keep their names (numbered first, in GROUP BY
// order), aggregate columns are addressed by their alias, their defaulted
// name, or by repeating the aggregate call — which appends a hidden trailing
// aggregate when the call is not already computed.
type havingEnv struct {
	groupCols []int
	src       *env
	aggs      *[]algebra.AggSpec
	spec      func(aggExpr) (algebra.AggSpec, error)
	find      func(algebra.AggSpec) int
}

func (h *havingEnv) column(c colRef) (int, error) {
	if c.qualifier == "" {
		for i, sp := range *h.aggs {
			if sp.Name != "" && strings.EqualFold(c.name, sp.Name) {
				return len(h.groupCols) + i, nil
			}
		}
	}
	pos, err := h.src.column(c)
	if err != nil {
		return 0, err
	}
	for gi, g := range h.groupCols {
		if g == pos {
			return gi, nil
		}
	}
	return 0, errf(c.at, "HAVING column %q is neither a grouping column nor an aggregate", c.display())
}

// aggregate maps an aggregate call in HAVING to its groupby output column,
// appending a hidden trailing aggregate spec when the call is new.
func (h *havingEnv) aggregate(n aggExpr) (int, error) {
	sp, err := h.spec(n)
	if err != nil {
		return 0, err
	}
	if i := h.find(sp); i >= 0 {
		return len(h.groupCols) + i, nil
	}
	*h.aggs = append(*h.aggs, sp) // anonymous hidden column
	return len(h.groupCols) + len(*h.aggs) - 1, nil
}

// ---------------------------------------------------------------------------
// DML translation
// ---------------------------------------------------------------------------

func translateInsert(n *insertStmt, cat algebra.Catalog) (stmt.Statement, error) {
	rel, ok := cat.RelationSchema(n.table)
	if !ok {
		return nil, errf(n.at, "unknown table %q", n.table)
	}
	for i, row := range n.rows {
		if len(row) != rel.Arity() {
			return nil, errf(n.at, "row %d has %d values, table %q has %d columns",
				i+1, len(row), n.table, rel.Arity())
		}
	}
	lit := algebra.Literal{Rel: rel.Rename(""), Rows: n.rows}
	return stmt.Insert{Target: n.table, Source: lit}, nil
}

func translateDelete(n *deleteStmt, cat algebra.Catalog) (stmt.Statement, error) {
	rel, ok := cat.RelationSchema(n.table)
	if !ok {
		return nil, errf(lex.Pos{}, "unknown table %q", n.table)
	}
	src := algebra.Expr(algebra.NewRel(n.table))
	if n.where != nil {
		e := &env{bindings: []binding{{alias: n.table, rel: rel, offset: 0}}, arity: rel.Arity()}
		cond, err := translateBool(n.where, e)
		if err != nil {
			return nil, err
		}
		src = algebra.NewSelect(cond, src)
	}
	return stmt.Delete{Target: n.table, Source: src}, nil
}

func translateUpdate(n *updateStmt, cat algebra.Catalog) (stmt.Statement, error) {
	rel, ok := cat.RelationSchema(n.table)
	if !ok {
		return nil, errf(lex.Pos{}, "unknown table %q", n.table)
	}
	e := &env{bindings: []binding{{alias: n.table, rel: rel, offset: 0}}, arity: rel.Arity()}

	// Start with the identity item list (%1, ..., %n) and overwrite the SET
	// columns — update is a structure-preserving extended projection
	// (Definition 4.1).
	items := make([]scalar.Expr, rel.Arity())
	for i := range items {
		items[i] = scalar.NewAttr(i)
	}
	for _, set := range n.sets {
		pos, err := e.column(set.column)
		if err != nil {
			return nil, err
		}
		se, err := translateScalar(set.expr, e)
		if err != nil {
			return nil, err
		}
		items[pos] = se
	}

	sel := algebra.Expr(algebra.NewRel(n.table))
	if n.where != nil {
		cond, err := translateBool(n.where, e)
		if err != nil {
			return nil, err
		}
		sel = algebra.NewSelect(cond, sel)
	}
	return stmt.Update{Target: n.table, Selection: sel, Items: items}, nil
}
