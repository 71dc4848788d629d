package mra

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestOneCallSitePerStage is the gate of the statement pipeline
// (pipeline.go): outside tests and benchmark/, each stage is called from
// exactly one place, and the compile family — one call per front end and
// form — from exactly one function.  Calls inside a stage's own package
// (Planner.Plan delegating to PlanOrdered) implement the stage and do not
// count.  Calls are resolved with go/types, so a plan's Execute is told apart
// from a statement's.  The planner is the one optimiser: no
// non-test file outside benchmark/ imports the rewriter, which stays only as
// the law table the tests check.  The oracle (internal/oracle) is test
// support that shares no code with the engine: no non-test file imports it,
// and it uses nothing of plan but the two error values errors.Is must match
// across both evaluators, no multiset function but New, and no Equal, Hash,
// Compare or Less method of value, tuple or multiset.
func TestOneCallSitePerStage(t *testing.T) {
	m := loadModule(t)
	for _, files := range m.files {
		for _, f := range files {
			for _, imp := range f.Imports {
				pos, _ := filepath.Rel(m.root, m.fset.Position(imp.Pos()).String())
				switch imp.Path.Value {
				case `"mra/internal/rewrite"`:
					t.Errorf("%s imports mra/internal/rewrite: the planner is the one optimiser", pos)
				case `"mra/internal/oracle"`:
					t.Errorf("%s imports mra/internal/oracle: the oracle is test support", pos)
				}
			}
		}
	}
	for _, use := range oracleEngineUses(m) {
		t.Errorf("internal/oracle uses %s: the oracle shares no code with the engine", use)
	}
	sites := stageCallSites(m)
	for _, stage := range []string{"compile", "validate", "plan", "execute"} {
		got := sites[stage]
		funcs := map[string]bool{}
		var lines []string
		for _, s := range got {
			funcs[s.fn] = true
			lines = append(lines, s.fn+" at "+s.pos)
		}
		switch {
		case len(got) == 0:
			t.Errorf("%s: no call site found", stage)
		case len(funcs) != 1, stage != "compile" && len(got) != 1:
			t.Errorf("%s: %d call sites in %d functions, want one:\n  %s",
				stage, len(got), len(funcs), strings.Join(lines, "\n  "))
		}
	}
}

// oracleEngineUses lists, with their positions, the engine identifiers
// internal/oracle refers to that its independence rules out.
func oracleEngineUses(m *moduleImporter) []string {
	var bad []string
	for id, obj := range m.uses["mra/internal/oracle"] {
		if obj.Pkg() == nil {
			continue
		}
		name := obj.Name()
		recv := ""
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
			recv = types.TypeString(fn.Type().(*types.Signature).Recv().Type(), nil)
		}
		switch path := obj.Pkg().Path(); {
		case path == "mra/internal/plan" && name != "ErrOverflow" && name != "ErrEmptyAggregate",
			path == "mra/internal/multiset" && recv == "" && name != "New" && name != "Relation",
			(path == "mra/internal/value" || path == "mra/internal/tuple" || path == "mra/internal/multiset") &&
				recv != "" && (name == "Equal" || name == "Hash" || name == "HashOn" || name == "Compare" || name == "Less"):
			pos, _ := filepath.Rel(m.root, m.fset.Position(id.Pos()).String())
			bad = append(bad, path+"."+name+" at "+pos)
		}
	}
	slices.Sort(bad)
	return bad
}

// stageOf names the pipeline stage a function implements, or "" when it is
// none of them.
func stageOf(fn *types.Func) string {
	recv := ""
	if r := fn.Type().(*types.Signature).Recv(); r != nil {
		rt := r.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if n, ok := rt.(*types.Named); ok {
			recv = n.Obj().Name()
		}
	}
	name := fn.Name()
	switch fn.Pkg().Path() + "." + recv {
	case "mra/internal/sqlfront.":
		if strings.HasPrefix(name, "Compile") {
			return "compile"
		}
	case "mra/internal/xraparse.":
		if strings.HasPrefix(name, "Parse") {
			return "compile"
		}
	case "mra/internal/algebra.":
		if name == "Validate" {
			return "validate"
		}
	case "mra/internal/plan.Planner":
		if name == "Plan" || name == "PlanOrdered" {
			return "plan"
		}
	case "mra/internal/plan.Plan":
		if strings.HasPrefix(name, "Execute") {
			return "execute"
		}
	}
	return ""
}

// stageSite is one reference to a stage: the function it sits in and its
// position.
type stageSite struct{ fn, pos string }

// moduleImporter type-checks the module's own packages from their non-test
// sources, keeping what each identifier refers to, and imports everything
// else from the standard library's export data.
type moduleImporter struct {
	root  string
	fset  *token.FileSet
	std   types.Importer
	files map[string][]*ast.File
	uses  map[string]map[*ast.Ident]types.Object
	pkgs  map[string]*types.Package
}

// Import implements types.Importer.
func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path != "mra" && !strings.HasPrefix(path, "mra/") {
		return m.std.Import(path)
	}
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(m.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, "mra"), "/")))
	parsed, err := parser.ParseDir(m.fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, pkg := range parsed {
		for _, f := range pkg.Files {
			files = append(files, f)
		}
	}
	uses := map[*ast.Ident]types.Object{}
	p, err := (&types.Config{Importer: m}).Check(path, m.fset, files, &types.Info{Uses: uses})
	if err != nil {
		return nil, err
	}
	m.pkgs[path], m.files[path], m.uses[path] = p, files, uses
	return p, nil
}

// loadModule type-checks every non-test package of the module outside
// benchmark/.
func loadModule(t *testing.T) *moduleImporter {
	t.Helper()
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	m := &moduleImporter{
		root: root, fset: token.NewFileSet(), std: importer.Default(),
		files: map[string][]*ast.File{}, uses: map[string]map[*ast.Ident]types.Object{},
		pkgs: map[string]*types.Package{},
	}
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		if rel == "benchmark" || rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if gofiles, _ := filepath.Glob(filepath.Join(dir, "*.go")); len(gofiles) == 0 {
			return nil
		}
		_, err = m.Import(strings.TrimSuffix("mra/"+filepath.ToSlash(rel), "/."))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// stageCallSites returns the references to each stage from other packages
// of the loaded module, by stage.
func stageCallSites(m *moduleImporter) map[string][]stageSite {
	sites := map[string][]stageSite{}
	for path, files := range m.files {
		for _, f := range files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				name := path + "." + fd.Name.Name
				if fd.Recv != nil {
					name = path + ".(" + types.ExprString(fd.Recv.List[0].Type) + ")." + fd.Name.Name
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					fn, ok := m.uses[path][sel.Sel].(*types.Func)
					if !ok || fn.Pkg() == nil || fn.Pkg().Path() == path {
						return true
					}
					if stage := stageOf(fn); stage != "" {
						pos, _ := filepath.Rel(m.root, m.fset.Position(sel.Pos()).String())
						sites[stage] = append(sites[stage], stageSite{fn: name, pos: pos})
					}
					return true
				})
			}
		}
	}
	return sites
}
