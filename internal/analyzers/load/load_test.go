package load

import (
	"go/ast"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

// moduleRoot finds the repository root relative to this source file.
func moduleRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller info")
	}
	return filepath.Clean(filepath.Join(filepath.Dir(file), "..", "..", ".."))
}

func TestLoadTypechecksModulePackages(t *testing.T) {
	root := moduleRoot(t)
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load(root, "./internal/fixed", "./internal/wine2", "./internal/mpi")
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	for _, path := range []string{"mdm/internal/fixed", "mdm/internal/wine2", "mdm/internal/mpi"} {
		p, ok := byPath[path]
		if !ok {
			t.Fatalf("package %s not loaded (got %v)", path, keys(byPath))
		}
		if p.Pkg == nil || !p.Pkg.Complete() {
			t.Errorf("%s: incomplete types.Package", path)
		}
		if len(p.TypesInfo.Defs) == 0 {
			t.Errorf("%s: empty type info", path)
		}
		// In-package test files must be part of the checked package.
		hasTest := false
		for _, f := range p.Files {
			name := p.Fset.File(f.Pos()).Name()
			if filepath.Base(name) != "" && len(name) > 8 && name[len(name)-8:] == "_test.go" {
				hasTest = true
			}
		}
		if !hasTest {
			t.Errorf("%s: no test files loaded", path)
		}
	}

	// Cross-package types must resolve: wine2's use of fixed.F must have a
	// signature from the imported mdm/internal/fixed.
	w := byPath["mdm/internal/wine2"]
	found := false
	for id, obj := range w.TypesInfo.Uses {
		if id.Name == "F" && obj.Pkg() != nil && obj.Pkg().Path() == "mdm/internal/fixed" {
			found = true
			break
		}
	}
	if !found {
		t.Error("wine2 does not resolve fixed.F to mdm/internal/fixed")
	}
	_ = ast.IsExported // keep ast import honest
}

// An external test package sees what its package's export_test.go exports:
// its imports resolve from the package's test build, as under go vet.
func TestLoadExternalTestSeesExportTest(t *testing.T) {
	root := moduleRoot(t)
	const dir = "./internal/analyzers/load/testdata/exporttest"
	l, err := NewLoader(root, dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load(root, dir)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.ImportPath)
	}
	want := []string{"mdm/internal/analyzers/load/testdata/exporttest", "mdm/internal/analyzers/load/testdata/exporttest_test"}
	if !slices.Equal(paths, want) {
		t.Errorf("loaded %v, want %v", paths, want)
	}
}

func keys(m map[string]*Package) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
