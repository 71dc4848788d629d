package mra

import (
	"fmt"
	"math"
	"strings"

	"mra/internal/multiset"
	"mra/internal/sqlfront"
	"mra/internal/tuple"
	"mra/internal/value"
)

// Result is a materialised query result: a multi-set of tuples together with
// its schema.  Relations are unordered; when a SQL query carries ORDER BY /
// LIMIT clauses the result additionally records an explicit presentation
// order, honoured by Rows and Table.
type Result struct {
	rel *multiset.Relation
	// ordered, when non-nil, lists every occurrence in presentation order
	// (after ORDER BY / OFFSET / LIMIT).
	ordered []tuple.Tuple
}

// Columns returns the result's column names; unnamed computed columns are
// rendered as col1, col2, ...
func (r *Result) Columns() []string {
	s := r.rel.Schema()
	out := make([]string, s.Arity())
	for i := 0; i < s.Arity(); i++ {
		name := s.Attribute(i).Name
		if name == "" {
			name = fmt.Sprintf("col%d", i+1)
		}
		out[i] = name
	}
	return out
}

// Len returns the number of rows, counting duplicates.  Cardinalities beyond
// the int range saturate at math.MaxInt rather than wrapping through a
// truncating conversion.
func (r *Result) Len() int {
	c := r.rel.Cardinality()
	if c > math.MaxInt {
		return math.MaxInt
	}
	return int(c)
}

// DistinctLen returns the number of distinct rows.
func (r *Result) DistinctLen() int { return r.rel.DistinctCount() }

// Rows returns all rows (duplicates expanded) in presentation order: the
// query's ORDER BY order when one was given, canonical order otherwise.
// Values are native Go values: int64, float64, string, bool or nil.
func (r *Result) Rows() [][]any {
	tuples := r.ordered
	if tuples == nil {
		tuples = r.rel.Tuples()
	}
	out := make([][]any, 0, len(tuples))
	for _, t := range tuples {
		out = append(out, rowOf(t))
	}
	return out
}

// withModifiers applies a SQL query's OFFSET / LIMIT clauses and strips the
// hidden sort columns the translator appended.  The window is cut from the
// presentation order — the Sort operator's key order under ORDER BY,
// canonical order otherwise — and the relation is rebuilt from the surviving
// rows so Len, Multiplicity and DistinctRows stay consistent with what the
// caller sees.  Sorting is not done here: an ORDER BY result already carries
// the order its plan's Sort produced.
func (r *Result) withModifiers(m sqlfront.Modifiers) *Result {
	if m.Offset == 0 && !m.HasLimit && m.Hidden == 0 {
		return r
	}
	rows := r.ordered
	if rows == nil {
		rows = r.rel.Tuples() // canonical order
	}
	if m.Offset > 0 {
		if m.Offset >= uint64(len(rows)) {
			rows = rows[:0]
		} else {
			rows = rows[m.Offset:]
		}
	}
	if m.HasLimit && uint64(len(rows)) > m.Limit {
		rows = rows[:m.Limit]
	}
	s := r.rel.Schema()
	if m.Hidden > 0 {
		// Strip the trailing hidden sort columns from the presentation.
		visible := make([]int, s.Arity()-m.Hidden)
		for i := range visible {
			visible[i] = i
		}
		s, _ = s.Project(visible)
		stripped := make([]tuple.Tuple, len(rows))
		for i, t := range rows {
			stripped[i], _ = t.Project(visible)
		}
		rows = stripped
	}
	rel := multiset.NewWithCapacity(s, len(rows))
	for _, t := range rows {
		rel.Add(t, 1)
	}
	return &Result{rel: rel, ordered: rows}
}

// DistinctRows returns one row per distinct tuple together with its
// multiplicity, in canonical order.
func (r *Result) DistinctRows() []RowCount {
	var out []RowCount
	r.rel.EachSorted(func(t tuple.Tuple, count uint64) bool {
		out = append(out, RowCount{Row: rowOf(t), Count: count})
		return true
	})
	return out
}

// RowCount pairs a distinct row with its multiplicity.
type RowCount struct {
	Row   []any
	Count uint64
}

// Multiplicity returns how many times the given row occurs in the result.
func (r *Result) Multiplicity(row ...any) uint64 {
	vals := make([]value.Value, len(row))
	for i, v := range row {
		cv, err := convertValue(v)
		if err != nil {
			return 0
		}
		vals[i] = cv
	}
	return r.rel.Multiplicity(tuple.New(vals...))
}

// rowOf converts a tuple into native Go values.
func rowOf(t tuple.Tuple) []any {
	row := make([]any, t.Arity())
	for i := 0; i < t.Arity(); i++ {
		v := t.At(i)
		switch v.Kind() {
		case value.KindInt:
			row[i] = v.Int()
		case value.KindFloat:
			row[i] = v.Float()
		case value.KindString:
			row[i] = v.Str()
		case value.KindBool:
			row[i] = v.Bool()
		default:
			row[i] = nil
		}
	}
	return row
}

// String renders the result as a multi-set literal.
func (r *Result) String() string { return r.rel.String() }

// Table renders the result as an aligned text table with a header row, one
// line per occurrence, in presentation order (ORDER BY order when given,
// canonical order otherwise).
func (r *Result) Table() string {
	cols := r.Columns()
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
	}
	var rows [][]string
	addRow := func(t tuple.Tuple, count uint64) {
		cells := make([]string, t.Arity())
		for i := 0; i < t.Arity(); i++ {
			cells[i] = t.At(i).Display()
			if len(cells[i]) > widths[i] {
				widths[i] = len(cells[i])
			}
		}
		for k := uint64(0); k < count; k++ {
			rows = append(rows, cells)
		}
	}
	if r.ordered != nil {
		for _, t := range r.ordered {
			addRow(t, 1)
		}
	} else {
		r.rel.EachSorted(func(t tuple.Tuple, count uint64) bool {
			addRow(t, count)
			return true
		})
	}

	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(cols)
	sep := make([]string, len(cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	fmt.Fprintf(&b, "(%d rows)\n", len(rows))
	return b.String()
}
