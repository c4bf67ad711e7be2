package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// testOnlyExports are the exports under internal/ that no non-test file
// uses and that stay on purpose, keyed package.Name or package.Type.Method.
var testOnlyExports = map[string]string{
	"count.WeightedBrute":      "brute-force K', the oracle root, core and count tests hold the counters to",
	"count.Weighted":           "K' without a context, the reference of the root exhaustive test and count's tests",
	"cnf.AssignmentFromBools":  "builds models from truth-table rows in cnf, dimacs, gen and walksat tests",
	"cnf.Assignment.Total":     "cnf, cdcl and dpll tests assert that a model assigns every variable",
	"cnf.Clause.IsTautology":   "the tautology oracle of cnf and logic tests",
	"gen.AllSAT2Var":           "the exhaustive two-variable corpus root, cnf, gen and simplify tests sweep",
	"hyperspace.NewExpanded":   "explicit minterm expansion, the enumeration side of the superposition ablation",
	"hyperspace.Expanded.Bind": "binds that enumeration side as BindAll binds the evaluator it is compared with",
	"obs.TraceJSON.Find":       "span lookup shared by the trace tests of five packages",
}

// interfaceMethods are called through an interface the standard library
// declares, so a missing direct call says nothing.
var interfaceMethods = map[string]bool{
	"Error": true, "Unwrap": true, "String": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
}

// TestNoTestOnlyExports fails when an exported func, method or type
// declared under internal/ has no use in any non-test Go file of the
// repository, the benchmark module included. It matches identifiers by
// name, not by object, so a name used anywhere keeps every declaration
// of it. internal/exp is out of scope: bench_test.go drives its runners.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct{ key, name, pos string }
	var decls []decl
	used := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata", ".bench_build":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := declIdents(f)
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		dir := filepath.ToSlash(filepath.Dir(path))
		if !strings.HasPrefix(dir, "internal/") || dir == "internal/exp" {
			return nil
		}
		pkg := f.Name.Name
		for _, fd := range f.Decls {
			switch fd := fd.(type) {
			case *ast.FuncDecl:
				if !fd.Name.IsExported() {
					continue
				}
				key := pkg + "." + fd.Name.Name
				if fd.Recv != nil {
					if interfaceMethods[fd.Name.Name] {
						continue
					}
					key = pkg + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				decls = append(decls, decl{key, fd.Name.Name, fset.Position(fd.Pos()).String()})
			case *ast.GenDecl:
				for _, s := range fd.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok && ts.Name.IsExported() {
						decls = append(decls, decl{pkg + "." + ts.Name.Name, ts.Name.Name, fset.Position(ts.Pos()).String()})
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		_, allowed := testOnlyExports[d.key]
		switch {
		case allowed && used[d.name]:
			t.Errorf("%s: %s has a caller outside tests; drop it from testOnlyExports", d.pos, d.key)
		case !allowed && !used[d.name]:
			t.Errorf("%s: %s has no caller outside tests; delete it or add it to testOnlyExports with a reason", d.pos, d.key)
		}
	}
	for key := range testOnlyExports {
		if !declared[key] {
			t.Errorf("testOnlyExports names %s, which is not declared under internal/", key)
		}
	}
}

// declIdents returns the identifiers of f that name what a declaration
// introduces, and the receiver type of every method, none of which is a use.
func declIdents(f *ast.File) map[*ast.Ident]bool {
	m := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			m[n.Name] = true
			if n.Recv != nil {
				ast.Inspect(n.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						m[id] = true
					}
					return true
				})
			}
		case *ast.TypeSpec:
			m[n.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				m[id] = true
			}
		case *ast.Field:
			for _, id := range n.Names {
				m[id] = true
			}
		}
		return true
	})
	return m
}

// recvType is the name of a method receiver's base type.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
