package pard_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// flagDefs maps each flag-defining function of package flag (and method of
// *flag.FlagSet) to the index of its name argument.
var flagDefs = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Int": 0, "Int64": 0,
	"String": 0, "Uint": 0, "Uint64": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1,
	"StringVar": 1, "UintVar": 1, "Uint64Var": 1, "TextVar": 1,
	"Var": 1, "Func": 0, "BoolFunc": 0,
}

// optionType reports whether an exported struct type under internal/ holds
// options: its name ends in Config, Options or Opts, or it is load.SimSpec.
func optionType(pkg, name string) bool {
	for _, suffix := range []string{"Config", "Options", "Opts"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return pkg == "load" && name == "SimSpec"
}

// TestOptionsCensus counts the options a user can set: the flags defined in
// cmd/ and examples/, and the exported fields of the option types under
// internal/ (see optionType). -v prints the count per command and type. It
// fails when the total exceeds ci/options-baseline.txt, a ratchet like the
// coverage floor: a change that retires options lowers the baseline with
// it, and one that adds an option must raise it in plain sight.
func TestOptionsCensus(t *testing.T) {
	census := map[string]int{}
	fset := token.NewFileSet()
	for _, root := range []string{"cmd", "examples", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			dir := filepath.ToSlash(filepath.Dir(path))
			if root == "internal" {
				countOptionFields(census, filepath.Base(dir), f)
			} else {
				census[dir] += countFlags(f)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	keys := make([]string, 0, len(census))
	total := 0
	for k, n := range census {
		if n > 0 {
			keys = append(keys, k)
			total += n
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		t.Logf("%-28s %3d", k, census[k])
	}
	t.Logf("%-28s %3d", "total", total)

	raw, err := os.ReadFile("ci/options-baseline.txt")
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := strconv.Atoi(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("ci/options-baseline.txt: %v", err)
	}
	switch {
	case total > baseline:
		t.Errorf("%d options, over the baseline of %d: retire one, or raise ci/options-baseline.txt and say why", total, baseline)
	case total < baseline:
		t.Logf("%d options, under the baseline of %d: lower ci/options-baseline.txt to %d", total, baseline, total)
	}
}

// countFlags counts the flags f defines: calls of a flag-defining function
// whose name argument is a string literal.
func countFlags(f *ast.File) int {
	n := 0
	ast.Inspect(f, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if i, ok := flagDefs[sel.Sel.Name]; ok && i < len(call.Args) {
			if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				n++
			}
		}
		return true
	})
	return n
}

// countOptionFields adds the exported fields of f's option types to census,
// keyed package.Type.
func countOptionFields(census map[string]int, pkg string, f *ast.File) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts := spec.(*ast.TypeSpec)
			st, ok := ts.Type.(*ast.StructType)
			if !ok || !ts.Name.IsExported() || !optionType(pkg, ts.Name.Name) {
				continue
			}
			key := pkg + "." + ts.Name.Name
			for _, field := range st.Fields.List {
				if len(field.Names) == 0 { // embedded
					census[key]++
				}
				for _, name := range field.Names {
					if name.IsExported() {
						census[key]++
					}
				}
			}
		}
	}
}
