package pard_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// keepExports lists exported internal functions that stay without a non-test
// caller, each with the reason. Key: package.Name or package.Type.Method.
var keepExports = map[string]string{
	"core.Estimator.Explain":            "the per-path breakdown a sampled decision trace will print",
	"core.Estimator.Lsub":               "the per-path breakdown a sampled decision trace will print",
	"sched.ManualExecutor.Pending":      "tests in other packages observe the core through it",
	"sched.Cluster.ActiveWorkers":       "tests in other packages observe the core through it",
	"simgpu.Runner.Requests":            "tests in other packages read the per-request ledger a result does not keep through it",
	"metrics.Collector.MarshalBinary":   "called by encoding/gob through reflection",
	"metrics.Collector.UnmarshalBinary": "called by encoding/gob through reflection",
	"server.Response.MarshalJSON":       "called by encoding/json through reflection",
}

// TestInternalExportsHaveCallers fails for each exported function or method
// under internal/ whose name no non-test Go file in the repository (bench/
// and examples/ included) uses, other than in its own declaration. Methods
// of the types pard.go re-exports are public API and count as used. The
// match is by name, so an export sharing its name with a used one passes.
func TestInternalExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		key string
		pos token.Pos
	}
	var decls []decl
	used := map[string]bool{}
	public := map[string]bool{} // package.Type re-exported by pard.go
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		names := map[*ast.Ident]bool{}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, dl := range f.Decls {
			fn, ok := dl.(*ast.FuncDecl)
			if !ok || !strings.HasPrefix(dir, "internal/") || !fn.Name.IsExported() {
				continue
			}
			names[fn.Name] = true
			key := filepath.Base(dir) + "." + fn.Name.Name
			if fn.Recv != nil {
				key = filepath.Base(dir) + "." + recvType(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls = append(decls, decl{key, fn.Name.Pos()})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if !names[n] {
					used[n.Name] = true
				}
			case *ast.TypeSpec:
				if sel, ok := n.Type.(*ast.SelectorExpr); ok && path == "pard.go" && n.Assign.IsValid() {
					public[sel.X.(*ast.Ident).Name+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(public) == 0 || len(decls) == 0 {
		t.Fatalf("scan found %d public types and %d exports; is the test running at the module root?", len(public), len(decls))
	}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
	}
	for key := range keepExports {
		if !declared[key] {
			t.Errorf("keepExports lists %s, which no file under internal/ declares", key)
		}
	}
	for _, d := range decls {
		parts := strings.Split(d.key, ".")
		name := parts[len(parts)-1]
		if used[name] || keepExports[d.key] != "" || len(parts) == 3 && public[parts[0]+"."+parts[1]] {
			continue
		}
		t.Errorf("%s: %s has no caller outside _test.go files; delete it or give keepExports a reason", fset.Position(d.pos), d.key)
	}
}

// recvType names a method receiver's type: T for T, *T, T[P] and *T[P].
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
			return ""
		}
	}
}
