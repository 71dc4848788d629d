// Package dump implements a textual dump/restore format for multi-set
// relational databases, so a database state D_t can be saved to a file and
// reloaded later.  The format is line-based and human-readable:
//
//	# mra dump v1
//	relation beer(name string, brewery string, alcperc float)
//	t 2 | 'pils';'guineken';5
//	t 1 | 'bock';'guineken';6.5
//	end
//
// Each `t <multiplicity> | <values>` line stores one distinct tuple with its
// multiplicity, preserving the multi-set exactly; `end` closes a relation.
// Values are encoded per the schema's domains (strings quoted with doubled
// single quotes, null as the bare word null).
package dump

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"mra/internal/multiset"
	"mra/internal/schema"
	"mra/internal/storage"
	"mra/internal/tuple"
	"mra/internal/value"
)

// header is the first line of every dump.
const header = "# mra dump v1"

// ErrFormat is the sentinel wrapped by all restore parsing errors.
var ErrFormat = errors.New("dump: format error")

// Write serialises every relation of the database to the writer.
func Write(db *storage.Database, w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, header); err != nil {
		return err
	}
	for _, name := range db.Names() {
		rel, ok := db.Relation(name)
		if !ok {
			continue
		}
		if err := writeRelation(bw, rel); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeRelation(w io.Writer, rel *multiset.Relation) error {
	s := rel.Schema()
	cols := make([]string, s.Arity())
	for i := 0; i < s.Arity(); i++ {
		a := s.Attribute(i)
		name := a.Name
		if name == "" {
			name = fmt.Sprintf("col%d", i+1)
		}
		cols[i] = name + " " + a.Type.String()
	}
	if _, err := fmt.Fprintf(w, "relation %s(%s)\n", s.Name(), strings.Join(cols, ", ")); err != nil {
		return err
	}
	var werr error
	rel.EachSorted(func(t tuple.Tuple, count uint64) bool {
		cells := make([]string, t.Arity())
		for i := 0; i < t.Arity(); i++ {
			cells[i] = encodeValue(t.At(i))
		}
		if _, err := fmt.Fprintf(w, "t %d | %s\n", count, strings.Join(cells, ";")); err != nil {
			werr = err
			return false
		}
		return true
	})
	if werr != nil {
		return werr
	}
	_, err := fmt.Fprintln(w, "end")
	return err
}

// encodeValue renders a value in the dump's cell syntax.
func encodeValue(v value.Value) string {
	switch v.Kind() {
	case value.KindString:
		return "'" + strings.ReplaceAll(v.Str(), "'", "''") + "'"
	default:
		return v.String()
	}
}

// Read parses a dump and returns a fresh database holding its contents.  The
// database's logical time restarts at zero (a restored state is a new D_0).
func Read(r io.Reader) (*storage.Database, error) {
	db := storage.NewDatabase()
	if err := ReadInto(db, r); err != nil {
		return nil, err
	}
	return db, nil
}

// ReadInto parses a dump into an existing database, creating its relations.
// The restore is atomic: the whole dump is parsed and validated first — a
// torn or malformed dump, a relation named twice, or a relation the database
// already holds fails before anything is created — and the relations are
// created and filled only afterwards, so a failing restore leaves the
// database as it was.
func ReadInto(db *storage.Database, r io.Reader) error {
	rels, err := parse(db, r)
	if err != nil || len(rels) == 0 {
		return err
	}
	changes := make(map[string]*multiset.Relation, len(rels))
	var created []string
	for _, inst := range rels {
		name := inst.Schema().Name()
		if err := db.CreateRelation(inst.Schema()); err != nil {
			// Validation already ruled out existing names, so only a
			// concurrent creator gets here: undo this restore's creations.
			drop(db, created)
			return err
		}
		created = append(created, name)
		changes[name] = inst
	}
	if _, err := db.Apply(changes); err != nil {
		drop(db, created)
		return err
	}
	return nil
}

// drop removes the relations a failed restore created.
func drop(db *storage.Database, names []string) {
	for _, name := range names {
		_ = db.DropRelation(name)
	}
}

// parse reads a whole dump into relation instances, in dump order, and
// validates it against the target database: every relation's schema must be
// well-formed and its name unique, both within the dump and against the
// relations db already holds (names compare case-insensitively, as the
// catalog does).
func parse(db *storage.Database, r io.Reader) ([]*multiset.Relation, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	next := func() (string, bool) {
		for sc.Scan() {
			lineNo++
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			return line, true
		}
		return "", false
	}

	first, ok := next()
	if !ok || first != header {
		return nil, fmt.Errorf("%w: missing %q header", ErrFormat, header)
	}

	var rels []*multiset.Relation
	seen := make(map[string]bool)
	for {
		line, ok := next()
		if !ok {
			break
		}
		if line == header {
			continue
		}
		if !strings.HasPrefix(line, "relation ") {
			return nil, fmt.Errorf("%w: line %d: expected a relation declaration, got %q", ErrFormat, lineNo, line)
		}
		rel, err := parseRelationHeader(strings.TrimPrefix(line, "relation "))
		if err == nil {
			err = rel.Validate()
		}
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, lineNo, err)
		}
		key := strings.ToLower(rel.Name())
		if seen[key] {
			return nil, fmt.Errorf("%w: line %d: relation %q declared twice", ErrFormat, lineNo, rel.Name())
		}
		if _, exists := db.RelationSchema(rel.Name()); exists {
			return nil, fmt.Errorf("%w: %q", storage.ErrRelationExists, rel.Name())
		}
		seen[key] = true
		inst := multiset.New(rel)
		for {
			row, ok := next()
			if !ok {
				return nil, fmt.Errorf("%w: unexpected end of input inside relation %q", ErrFormat, rel.Name())
			}
			if row == "end" {
				break
			}
			if err := parseTupleLine(row, rel, inst); err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, lineNo, err)
			}
		}
		rels = append(rels, inst)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rels, nil
}

// parseRelationHeader parses "name(col type, col type, ...)".
func parseRelationHeader(s string) (schema.Relation, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return schema.Relation{}, fmt.Errorf("malformed relation declaration %q", s)
	}
	name := strings.TrimSpace(s[:open])
	if name == "" {
		return schema.Relation{}, fmt.Errorf("relation declaration without a name")
	}
	body := s[open+1 : len(s)-1]
	var attrs []schema.Attribute
	for _, col := range strings.Split(body, ",") {
		col = strings.TrimSpace(col)
		if col == "" {
			continue
		}
		fields := strings.Fields(col)
		if len(fields) != 2 {
			return schema.Relation{}, fmt.Errorf("malformed column declaration %q", col)
		}
		kind, err := value.ParseKind(fields[1])
		if err != nil {
			return schema.Relation{}, err
		}
		attrs = append(attrs, schema.Attribute{Name: fields[0], Type: kind})
	}
	if len(attrs) == 0 {
		return schema.Relation{}, fmt.Errorf("relation %q has no columns", name)
	}
	return schema.NewRelation(name, attrs...), nil
}

// parseTupleLine parses "t <count> | v;v;v" into the relation instance.
func parseTupleLine(line string, rel schema.Relation, inst *multiset.Relation) error {
	if !strings.HasPrefix(line, "t ") {
		return fmt.Errorf("expected a tuple line, got %q", line)
	}
	rest := strings.TrimPrefix(line, "t ")
	sep := strings.Index(rest, "|")
	if sep < 0 {
		return fmt.Errorf("tuple line without separator: %q", line)
	}
	count, err := strconv.ParseUint(strings.TrimSpace(rest[:sep]), 10, 64)
	if err != nil || count == 0 {
		return fmt.Errorf("invalid multiplicity in %q", line)
	}
	cells, err := splitCells(strings.TrimSpace(rest[sep+1:]))
	if err != nil {
		return err
	}
	if len(cells) != rel.Arity() {
		return fmt.Errorf("tuple has %d values, relation %q expects %d", len(cells), rel.Name(), rel.Arity())
	}
	vals := make([]value.Value, len(cells))
	for i, cell := range cells {
		v, err := decodeValue(cell, rel.Attribute(i).Type)
		if err != nil {
			return fmt.Errorf("column %d: %v", i+1, err)
		}
		vals[i] = v
	}
	inst.Add(tuple.FromSlice(vals), count)
	return nil
}

// splitCells splits on ';' outside quoted strings.
func splitCells(s string) ([]string, error) {
	var cells []string
	var b strings.Builder
	inString := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '\'':
			inString = !inString
			b.WriteByte(c)
		case c == ';' && !inString:
			cells = append(cells, strings.TrimSpace(b.String()))
			b.Reset()
		default:
			b.WriteByte(c)
		}
	}
	if inString {
		return nil, fmt.Errorf("unterminated string in %q", s)
	}
	cells = append(cells, strings.TrimSpace(b.String()))
	return cells, nil
}

// decodeValue parses one cell according to the declared column domain.
func decodeValue(cell string, kind value.Kind) (value.Value, error) {
	if cell == "null" {
		return value.Null, nil
	}
	switch kind {
	case value.KindString:
		if len(cell) < 2 || cell[0] != '\'' || cell[len(cell)-1] != '\'' {
			return value.Null, fmt.Errorf("malformed string literal %q", cell)
		}
		return value.NewString(strings.ReplaceAll(cell[1:len(cell)-1], "''", "'")), nil
	case value.KindInt:
		n, err := strconv.ParseInt(cell, 10, 64)
		if err != nil {
			return value.Null, fmt.Errorf("malformed integer %q", cell)
		}
		return value.NewInt(n), nil
	case value.KindFloat:
		f, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return value.Null, fmt.Errorf("malformed real %q", cell)
		}
		return value.NewFloat(f), nil
	case value.KindBool:
		switch cell {
		case "true":
			return value.NewBool(true), nil
		case "false":
			return value.NewBool(false), nil
		default:
			return value.Null, fmt.Errorf("malformed boolean %q", cell)
		}
	default:
		return value.Null, fmt.Errorf("unsupported column domain %s", kind)
	}
}
