package vada_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// TestNoDefaultOptions keeps the house rule: a value no binary varies is a
// constant in the package it bounds, so no package under internal/ exports a
// Default…Options constructor for callers to copy and vary.
func TestNoDefaultOptions(t *testing.T) {
	fset := token.NewFileSet()
	for _, path := range goFiles(t, "internal") {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.IsExported() &&
				strings.HasPrefix(fn.Name.Name, "Default") && strings.HasSuffix(fn.Name.Name, "Options") {
				t.Errorf("%s: %s exports settings no binary varies; make them constants of the package",
					fset.Position(fn.Pos()), fn.Name.Name)
			}
		}
	}
}
