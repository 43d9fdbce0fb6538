package vada_test

import (
	"bytes"
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

// goFiles lists the .go files under each root (a directory or one file).
func goFiles(t *testing.T, roots ...string) []string {
	t.Helper()
	var files []string
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// facadeImportName returns the local name file f binds the root package
// "vada" to, or "" when f does not import it.
func facadeImportName(f *ast.File) string {
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "vada" {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return "vada"
		}
	}
	return ""
}

// TestNoInternalImportsFacade pins the import direction: the facade aliases
// the implementation packages, so none of them — tests included — may import
// it back.
func TestNoInternalImportsFacade(t *testing.T) {
	fset := token.NewFileSet()
	for _, path := range goFiles(t, "internal") {
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		if facadeImportName(f) != "" {
			t.Errorf("%s imports the facade package \"vada\"; import the internal packages it uses directly", path)
		}
	}
}

// TestFacadeSurface keeps the public surface earned: every exported name
// vada.go declares is called by a client in cmd/, examples/ or vada_test.go,
// and the file stays small enough to read in one sitting.
func TestFacadeSurface(t *testing.T) {
	const maxNames, maxLines = 90, 300

	src, err := os.ReadFile("vada.go")
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(src, []byte("\n")); n > maxLines {
		t.Errorf("vada.go is %d lines, want ≤ %d", n, maxLines)
	}
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "vada.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	declare := func(id *ast.Ident) {
		if id.IsExported() {
			declared[id.Name] = true
		}
	}
	for _, decl := range facade.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				declare(d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					declare(s.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						declare(id)
					}
				}
			}
		}
	}
	if len(declared) > maxNames {
		t.Errorf("vada.go exports %d names, want ≤ %d", len(declared), maxNames)
	}

	used := map[string]bool{}
	for _, path := range goFiles(t, "cmd", "examples", "vada_test.go") {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		local := facadeImportName(f)
		if local == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == local {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	var unused []string
	for name := range declared {
		if !used[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("vada.go exports names no client in cmd/, examples/ or vada_test.go uses: %s",
			strings.Join(unused, ", "))
	}
}
