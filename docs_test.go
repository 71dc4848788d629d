package mra

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// TestExportedDocComments is the documentation gate for the engine packages:
// every exported identifier of the execution-layer packages — types,
// functions, methods on exported types, constants, variables, and exported
// struct fields — must carry a doc comment.  ARCHITECTURE.md points readers
// at these packages for the execution and batch contracts, so their godoc
// must stay complete.
func TestExportedDocComments(t *testing.T) {
	for _, dir := range []string{
		"internal/exec", "internal/plan", "internal/eval",
		"internal/multiset", "internal/tuple", "internal/value",
		"internal/stats", "internal/oracle", "internal/lex",
		"internal/stmt", "internal/txn", "internal/storage",
	} {
		var missing []string
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					missing = append(missing, undocumented(fset, decl)...)
				}
			}
		}
		if len(missing) > 0 {
			t.Errorf("%s: exported identifiers without doc comments:\n  %s",
				dir, strings.Join(missing, "\n  "))
		}
	}
}

// undocumented returns the exported identifiers a declaration fails to
// document, rendered with their source positions.
func undocumented(fset *token.FileSet, decl ast.Decl) []string {
	var out []string
	report := func(name *ast.Ident) {
		out = append(out, fmt.Sprintf("%s (%s)", name.Name, fset.Position(name.Pos())))
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || !exportedReceiver(d) {
			return nil
		}
		if d.Doc == nil {
			report(d.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				if d.Doc == nil && s.Doc == nil && s.Comment == nil {
					report(s.Name)
				}
				if st, ok := s.Type.(*ast.StructType); ok {
					out = append(out, undocumentedFields(fset, st)...)
				}
			case *ast.ValueSpec:
				for _, name := range s.Names {
					if !name.IsExported() {
						continue
					}
					if d.Doc == nil && s.Doc == nil && s.Comment == nil {
						report(name)
					}
				}
			}
		}
	}
	return out
}

// undocumentedFields returns the exported, uncommented fields of an exported
// struct type.
func undocumentedFields(fset *token.FileSet, st *ast.StructType) []string {
	var out []string
	for _, f := range st.Fields.List {
		if f.Doc != nil || f.Comment != nil {
			continue
		}
		for _, name := range f.Names {
			if name.IsExported() {
				out = append(out, fmt.Sprintf("%s (%s)", name.Name, fset.Position(name.Pos())))
			}
		}
	}
	return out
}

// exportedReceiver reports whether a function declaration is a plain function
// or a method whose receiver type is itself exported; methods on unexported
// types are internal and outside the gate.
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}
