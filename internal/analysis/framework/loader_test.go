package framework

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule materializes a throwaway module on disk and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const loaderGoMod = "module loadertest\n\ngo 1.21\n"

// TestLoaderExternalTestPackage: _test.go files in an external package
// (package foo_test) must land in TestFiles without breaking the
// type-check of the package proper.
func TestLoaderExternalTestPackage(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": loaderGoMod,
		"a/a.go": "package a\n\nfunc Value() int { return 4 }\n",
		"a/a_test.go": `package a_test

import "testing"

func TestValue(t *testing.T) {}
`,
		"a/internal_test.go": `package a

import "testing"

func TestInternal(t *testing.T) {}
`,
	})
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Files) != 1 {
		t.Errorf("Files = %d, want 1", len(pkg.Files))
	}
	if len(pkg.TestFiles) != 2 {
		t.Errorf("TestFiles = %d, want 2 (external and internal test files)", len(pkg.TestFiles))
	}
	if pkg.Types == nil || len(pkg.TypeErrors) != 0 {
		t.Errorf("type check failed: Types=%v errors=%v", pkg.Types, pkg.TypeErrors)
	}
	// External test package name must not have polluted the package.
	if got := pkg.Types.Name(); got != "a" {
		t.Errorf("package name = %q, want a", got)
	}
}

// TestLoaderPartialTypeCheck: a package with type errors still yields AST,
// partial type info, and a runnable analyzer pass.
func TestLoaderPartialTypeCheck(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": loaderGoMod,
		"b/b.go": `package b

func Broken() undefinedType { return nil }

func Fine() int { return 1 }
`,
	})
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(filepath.Join(dir, "b"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) == 0 {
		t.Fatalf("expected type errors for undefinedType, got none")
	}
	if pkg.Types == nil || pkg.Info == nil {
		t.Fatalf("partial type info missing: Types=%v Info=%v", pkg.Types, pkg.Info)
	}
	// An analyzer pass over the broken package must still run and see the
	// healthy declarations.
	var sawFine bool
	a := &Analyzer{
		Name: "probe",
		Doc:  "test probe",
		Run: func(p *Pass) error {
			for _, f := range p.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					if fd, ok := n.(*ast.FuncDecl); ok && fd.Name.Name == "Fine" {
						if obj := p.TypesInfo.Defs[fd.Name]; obj != nil {
							sawFine = true
						}
					}
					return true
				})
			}
			return nil
		},
	}
	if _, err := pkg.Run(a); err != nil {
		t.Fatalf("analyzer over partial package: %v", err)
	}
	if !sawFine {
		t.Errorf("pass did not see type info for the healthy declaration")
	}
}

// factsProbe is the fact type used by the round-trip tests below.
type factsProbe struct{ Tag string }

func (*factsProbe) AFact() {}

// TestFactRoundTripAcrossPackages: facts exported while analyzing a
// dependency must be importable when the same analyzer later runs on an
// importing package — including transitively, and with the dependency's
// run memoized (exactly one analysis per package).
func TestFactRoundTripAcrossPackages(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":     loaderGoMod,
		"dep/dep.go": "package dep\n\nfunc Marked() {}\n",
		"mid/mid.go": `package mid

import "loadertest/dep"

func Use() { dep.Marked() }
`,
		"top/top.go": `package top

import "loadertest/mid"

func Top() { mid.Use() }
`,
	})
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	runsPerPkg := map[string]int{}
	var imported []string
	a := &Analyzer{
		Name:      "facttrip",
		Doc:       "exports a fact on every function, imports facts on callees",
		FactTypes: []Fact{(*factsProbe)(nil)},
		Run: func(p *Pass) error {
			runsPerPkg[p.PkgPath]++
			for _, f := range p.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.FuncDecl:
						if obj := p.TypesInfo.Defs[x.Name]; obj != nil {
							p.ExportObjectFact(obj, &factsProbe{Tag: p.PkgPath + "." + x.Name.Name})
						}
					case *ast.CallExpr:
						if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
							if obj := p.TypesInfo.Uses[sel.Sel]; obj != nil {
								var got factsProbe
								if p.ImportObjectFact(obj, &got) {
									imported = append(imported, p.PkgPath+" sees "+got.Tag)
								}
							}
						}
					}
					return true
				})
			}
			return nil
		},
	}
	top, err := l.LoadDir(filepath.Join(dir, "top"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := top.Run(a); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"loadertest/mid sees loadertest/dep.Marked",
		"loadertest/top sees loadertest/mid.Use",
	}
	if strings.Join(imported, "; ") != strings.Join(want, "; ") {
		t.Errorf("imported facts = %v, want %v", imported, want)
	}
	for pkgPath, n := range runsPerPkg {
		if n != 1 {
			t.Errorf("%s analyzed %d times, want 1 (memoization)", pkgPath, n)
		}
	}
	// Running the suite again over an importing package must hit the memo,
	// not re-run.
	mid, err := l.LoadDir(filepath.Join(dir, "mid"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mid.Run(a); err != nil {
		t.Fatal(err)
	}
	if runsPerPkg["loadertest/mid"] != 1 {
		t.Errorf("mid re-analyzed on second Run; want memoized result")
	}
}

// TestFactTypeEnforcement: trafficking in an undeclared fact type panics
// loudly instead of corrupting the store.
func TestFactTypeEnforcement(t *testing.T) {
	pkg := &Package{PkgPath: "x", Fset: token.NewFileSet()}
	pass := &Pass{
		Analyzer: &Analyzer{Name: "strict", Doc: "no fact types declared"},
		pkg:      pkg,
	}
	defer func() {
		if recover() == nil {
			t.Errorf("ExportObjectFact with undeclared fact type did not panic")
		}
	}()
	obj := types.NewVar(token.NoPos, nil, "v", types.Typ[types.Int])
	pass.ExportObjectFact(obj, &factsProbe{})
}
