// Package load type-checks the packages of this module for the mdmvet
// analyzer suite without depending on golang.org/x/tools.
//
// It mirrors the way cmd/vet's unitchecker consumes the build system: package
// metadata comes from `go list -json`, and imports are satisfied from the
// compiler export data that `go list -export` materializes in the build
// cache. Each analyzed package is parsed and type-checked from source
// (including its in-package *_test.go files, which are part of the contract
// the analyzers enforce); everything it imports — standard library and other
// module packages alike — is loaded through the standard gc importer.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File // GoFiles + in-package TestGoFiles, in that order
	Pkg        *types.Package
	TypesInfo  *types.Info
}

// listEntry is the subset of `go list -json` output the loader needs.
type listEntry struct {
	ImportPath   string
	Dir          string
	Name         string
	Standard     bool
	ForTest      string
	Export       string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Error        *struct{ Err string }
}

func runGoList(dir string, args ...string) ([]listEntry, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("load: go list %s: %v\n%s", strings.Join(args, " "), err, errb.String())
	}
	var entries []listEntry
	dec := json.NewDecoder(&out)
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %v", err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// exportMap builds importPath → export-data file for the whole dependency
// closure of the given patterns, test dependencies included, keyed first by
// the package whose test build an entry belongs to: "" for the plain
// packages, q for the variants `go list -test` recompiles for q's tests
// ("p [q.test]": q with its in-package _test.go files, or a p importing it).
func exportMap(dir string, patterns []string) (map[string]map[string]string, error) {
	args := append([]string{"-export", "-deps", "-test", "-json=ImportPath,Export,ForTest,Standard"}, patterns...)
	entries, err := runGoList(dir, args...)
	if err != nil {
		return nil, err
	}
	m := map[string]map[string]string{"": {}}
	for _, e := range entries {
		if e.Export == "" || strings.HasSuffix(e.ImportPath, ".test") {
			continue // the test main has no importers
		}
		if m[e.ForTest] == nil {
			m[e.ForTest] = map[string]string{}
		}
		path, _, _ := strings.Cut(e.ImportPath, " [")
		m[e.ForTest][path] = e.Export
	}
	return m, nil
}

// Loader type-checks module packages against compiler export data.
type Loader struct {
	Fset    *token.FileSet
	exports map[string]map[string]string
	imp     types.ImporterFrom
}

// NewLoader prepares a loader rooted at the module directory dir, able to
// resolve every import reachable from the given package patterns.
func NewLoader(dir string, patterns ...string) (*Loader, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	exports, err := exportMap(dir, patterns)
	if err != nil {
		return nil, err
	}
	l := &Loader{Fset: token.NewFileSet(), exports: exports}
	l.imp = l.importer("")
	return l, nil
}

// importer resolves an import from the test build of forTest first, then
// from the plain packages. Each importer caches what it loads, so a test
// build needs its own.
func (l *Loader) importer(forTest string) types.ImporterFrom {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := l.exports[forTest][path]
		if !ok {
			f, ok = l.exports[""][path]
		}
		if !ok {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(l.Fset, "gc", lookup).(types.ImporterFrom)
}

// Load parses and type-checks the packages matched by the patterns, with
// in-package test files included. External test packages (package foo_test)
// are type-checked as their own Package entries with import path "path_test",
// against foo's test build, as go vet does: what foo's export_test.go
// exports is in scope.
func (l *Loader) Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"-json=ImportPath,Dir,Name,GoFiles,TestGoFiles,XTestGoFiles,Error"}, patterns...)
	entries, err := runGoList(dir, args...)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, e := range entries {
		if e.Error != nil {
			return nil, fmt.Errorf("load: %s: %s", e.ImportPath, e.Error.Err)
		}
		files := append(append([]string{}, e.GoFiles...), e.TestGoFiles...)
		p, err := l.Check(e.ImportPath, e.Dir, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
		if len(e.XTestGoFiles) > 0 {
			xl := *l
			xl.imp = l.importer(e.ImportPath)
			p, err := xl.Check(e.ImportPath+"_test", e.Dir, e.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, nil
}

// Check parses the named files (relative to dir) and type-checks them as one
// package under the given import path.
func (l *Loader) Check(importPath, dir string, files []string) (*Package, error) {
	var asts []*ast.File
	for _, name := range files {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(l.Fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("load: %v", err)
		}
		asts = append(asts, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l.imp}
	pkg, err := conf.Check(importPath, l.Fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("load: type-checking %s: %v", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       l.Fset,
		Files:      asts,
		Pkg:        pkg,
		TypesInfo:  info,
	}, nil
}
