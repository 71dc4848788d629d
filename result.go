package mra

import (
	"fmt"
	"math"
	"strings"

	"mra/internal/multiset"
	"mra/internal/plan"
	"mra/internal/tuple"
	"mra/internal/value"
)

// Result is a materialised query result: a multi-set of tuples together with
// its schema.  Relations are unordered; when a SQL query carries an ORDER BY /
// OFFSET / LIMIT clause the result is the clause's window and additionally
// records its presentation order, honoured by Rows and Table.
type Result struct {
	rel *multiset.Relation
	// runs, when non-nil, is the presentation order: the counted runs the
	// plan's Sort root emitted, which hold exactly rel's occurrences.
	runs []plan.Run
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
	out := make([][]any, 0, r.Len())
	r.eachRun(func(t tuple.Tuple, count uint64) bool {
		for k := uint64(0); k < count; k++ {
			out = append(out, rowOf(t))
		}
		return true
	})
	return out
}

// eachRun calls fn with the result's counted runs in presentation order: the
// Sort root's runs under a clause, canonical order otherwise.
func (r *Result) eachRun(fn func(t tuple.Tuple, count uint64) bool) {
	if r.runs == nil {
		r.rel.EachSorted(fn)
		return
	}
	for _, run := range r.runs {
		if !fn(run.Tuple, run.Count) {
			return
		}
	}
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
	r.eachRun(func(t tuple.Tuple, count uint64) bool {
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
		return true
	})

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
