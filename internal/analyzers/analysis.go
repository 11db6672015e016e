// Package analyzers implements mdmvet, a static-analysis suite for the
// contracts of the MDM reproduction that no dynamic test can pin.
//
// A rule belongs here only when a violation passes every test: the bit
// identity lattice, the allocation, traffic and accuracy tests and the crash
// matrix catch a wrong sum order, a widened float32 step, a stray MPI tag or
// a shard race, so those are not rules. What remains:
//
//	gojoin    — launched goroutines must signal completion (channel send,
//	            close, or WaitGroup Done/Wait) so the launcher can join
//	            them and collect their errors; a leaked goroutine fails no
//	            test
//	rawio     — no raw os file writes outside internal/store; a write that
//	            bypasses store.FS is never reached by the FaultFS crash
//	            matrix
//
// On top of the per-package checks, a callgraph pass (callgraph.go) computes
// transitive reachability from //mdm:stepflow-annotated roots and marks every
// function on the simulation hot path. Two step-path analyzers consume that
// fact:
//
//	wallclock — no time.Now/time.Since/math/rand in stepflow code (a clock
//	            read breaks journal replay only when the clock differs,
//	            which a test run does not arrange)
//	hotalloc  — no growing appends, fmt.Sprintf, string concatenation or
//	            captured-closure goroutine launches in stepflow code
//	            (TestStepAllocs counts the configurations it drives; this
//	            covers every function the step can reach)
//
// Each analyzer's diagnostics can be suppressed for a reviewed line with a
// comment of the form "//mdm:<key> -- <justification>" (for example
// //mdm:rawiook -- pprof profile) placed on the offending line, the line
// above it, or in the doc comment of the enclosing function. The
// justification after " -- " is mandatory: `mdmvet -audit` fails on bare
// suppressions.
//
// The API deliberately mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, Reportf) so the suite can migrate to the upstream framework
// mechanically; the upstream module is not vendored because this tree builds
// offline against the standard library only.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"mdm/internal/analyzers/load"
)

// An Analyzer describes one analysis pass.
type Analyzer struct {
	Name     string
	Doc      string
	Suppress string // //mdm:<key> comment key that silences this analyzer
	Run      func(*Pass)
}

// A Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Path     string // package import path
	Pkg      *types.Package
	Info     *types.Info
	Facts    *Facts // module-wide callgraph facts; nil disables fact-aware analyzers

	diags      []Diagnostic
	suppressed *suppressions
}

// Reportf records a diagnostic at pos unless a suppression comment covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppressed.covers(p.Analyzer.Suppress, position) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// suppressions indexes //mdm:<key> comments by file, line and function range.
type suppressions struct {
	lines  map[string]map[int][]string // file → line → keys on that line
	ranges []suppressedRange           // functions whose doc carries a key
	fset   *token.FileSet
}

type suppressedRange struct {
	file     string
	from, to int // line range, inclusive
	keys     []string
}

const suppressPrefix = "//mdm:"

func commentKeys(c *ast.Comment) []string {
	var keys []string
	for _, line := range strings.Split(c.Text, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, suppressPrefix); ok {
			key, _, _ := strings.Cut(rest, " ")
			if key != "" {
				keys = append(keys, key)
			}
		}
	}
	return keys
}

func buildSuppressions(fset *token.FileSet, files []*ast.File) *suppressions {
	s := &suppressions{lines: make(map[string]map[int][]string), fset: fset}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				keys := commentKeys(c)
				if len(keys) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				m := s.lines[pos.Filename]
				if m == nil {
					m = make(map[int][]string)
					s.lines[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], keys...)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				return true
			}
			var keys []string
			for _, c := range fd.Doc.List {
				keys = append(keys, commentKeys(c)...)
			}
			if len(keys) > 0 {
				from := fset.Position(fd.Pos())
				to := fset.Position(fd.End())
				s.ranges = append(s.ranges, suppressedRange{
					file: from.Filename, from: from.Line, to: to.Line, keys: keys,
				})
			}
			return true
		})
	}
	return s
}

// covers reports whether a diagnostic with the given suppression key at
// position pos is silenced: a matching key on the same line, the line above,
// or in the doc comment of the enclosing function.
func (s *suppressions) covers(key string, pos token.Position) bool {
	if key == "" {
		return false
	}
	if m := s.lines[pos.Filename]; m != nil {
		for _, l := range [2]int{pos.Line, pos.Line - 1} {
			for _, k := range m[l] {
				if k == key {
					return true
				}
			}
		}
	}
	for _, r := range s.ranges {
		if r.file == pos.Filename && r.from <= pos.Line && pos.Line <= r.to {
			for _, k := range r.keys {
				if k == key {
					return true
				}
			}
		}
	}
	return false
}

// RunPackage runs the analyzers over one loaded package without module-wide
// facts: the per-package analyzers behave as always and the fact-aware ones
// (wallclock, hotalloc) stay silent. Use
// RunPackageFacts with a BuildFacts result to enable them.
func RunPackage(pkg *load.Package, analyzers []*Analyzer) []Diagnostic {
	return RunPackageFacts(pkg, analyzers, nil)
}

// RunPackageFacts runs the analyzers over one loaded package with the given
// module-wide facts and returns the surviving (non-suppressed) diagnostics
// sorted by position.
func RunPackageFacts(pkg *load.Package, analyzers []*Analyzer, facts *Facts) []Diagnostic {
	sup := buildSuppressions(pkg.Fset, pkg.Files)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			Path:       pkg.ImportPath,
			Pkg:        pkg.Pkg,
			Info:       pkg.TypesInfo,
			Facts:      facts,
			suppressed: sup,
		}
		a.Run(pass)
		diags = append(diags, pass.diags...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags
}

// All returns the full mdmvet suite. The last two are the fact-aware
// step-path analyzers: they only report when the runner supplies BuildFacts
// output via RunPackageFacts.
func All() []*Analyzer {
	return []*Analyzer{GoJoin, RawIO, WallClock, HotAlloc}
}

// calleeFunc resolves a call expression to the *types.Func it invokes, or nil
// for builtins, conversions and indirect calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
