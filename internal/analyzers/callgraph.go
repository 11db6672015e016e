package analyzers

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"mdm/internal/analyzers/load"
)

// This file is the fact-propagation layer of the suite: a whole-module call
// graph computed once over every loaded package, from which per-function
// *facts* are derived and handed to the analyzers through Pass.Facts. The
// first (and so far only) fact is "stepflow": the transitive closure of the
// simulation hot path.
//
// The paper's 1.34 Tflops run works because every MDM stage is strictly
// ordered hardware; the repo mirrors that with bit-identity and journal/replay
// contracts that only hold if the per-step code is deterministic and
// allocation-free. Those properties are global — a clock read three calls
// below core.ParallelRun.Step breaks replay just as surely as one inside it —
// so the step-path analyzers (wallclock, hotalloc) need to know, per
// function, whether it can execute during a step.
//
// Roots are declared in source: a function whose doc comment carries a
// "//mdm:stepflow -- reason" directive is a hot-path entry point. The repo
// annotates core.ParallelRun.StepInto, md.Integrator.Step/Run, the WINE-2
// and MDGRAPE-2 session entry points, and the serving layer's per-step
// interrupt check, whose wiring is an assignment. Reachability propagates
// through:
//
//   - direct calls, go statements and defers (resolved through go/types);
//   - closures: a function literal's body belongs to its declaring function,
//     so calls inside it propagate from that function;
//   - interface dispatch: a call through an interface method fans out to
//     every concrete method in the module with the same name and shape
//     (a class-hierarchy approximation — deliberately an over- rather than
//     under-approximation, since a missed hot function is a silent hole in
//     the determinism gate);
//   - callbacks: a named function or method value passed as an argument to a
//     stepflow function is assumed invoked by it (Integrator.Run(n, observe)
//     marks observe);
//   - bound fields: a func-typed field stands for every function or method
//     value the module assigns to it, so passing the field as an argument
//     or calling through it reaches those (pool.Run(n, s.sweepChunk) marks
//     the runSweepChunk that NewSystem bound; World.Run(pr.rankStep) marks
//     runRank). Fields are keyed by package, name and type, so two fields
//     alike in all three share their bindings: an over-approximation again.
//
// Cross-package identity: the loader type-checks each package from source but
// resolves its imports from compiler export data, so the *types.Func for
// core.ParallelRun.Forces seen from package md is a different object than the one
// from core's own load. Functions are therefore keyed by FullName() strings,
// which are identical in both universes.

// StepFlowKey is the //mdm: directive that marks a function as a hot-path
// root for the callgraph pass.
const StepFlowKey = "stepflow"

// Facts carries the module-wide analysis facts consumed by fact-aware
// analyzers via Pass.Facts. A nil *Facts disables those analyzers.
type Facts struct {
	stepflow map[string]bool // types.Func FullName → reachable from a root
	roots    []string        // annotated root names, sorted
}

// StepFlow reports whether fn is on the simulation hot path.
func (f *Facts) StepFlow(fn *types.Func) bool {
	return f != nil && fn != nil && f.stepflow[funcKey(fn)]
}

// StepFlowNames returns every hot-path function name, sorted — the export
// consumed by tests and by mdmvet's machine-readable output.
func (f *Facts) StepFlowNames() []string {
	if f == nil {
		return nil
	}
	names := make([]string, 0, len(f.stepflow))
	for name := range f.stepflow {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// funcKey names a function consistently across the source-checked and
// export-data universes.
func funcKey(fn *types.Func) string { return fn.FullName() }

// methodShape is the name+arity signature used to fan interface calls out to
// candidate concrete methods.
type methodShape struct {
	name    string
	params  int
	results int
}

func shapeOf(fn *types.Func) methodShape {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return methodShape{name: fn.Name()}
	}
	return methodShape{name: fn.Name(), params: sig.Params().Len(), results: sig.Results().Len()}
}

// callGraph accumulates edges while the packages are walked.
type callGraph struct {
	edges   map[string][]string      // caller key → callee keys
	impls   map[methodShape][]string // method shape → concrete methods in the module
	roots   map[string]bool          // annotated //mdm:stepflow functions
	ifaceBy map[string]methodShape   // interface-method key → its shape
}

// BuildFacts computes the module call graph over the loaded packages and
// returns the propagated facts. Packages may be passed in any order.
func BuildFacts(pkgs []*load.Package) *Facts {
	g := &callGraph{
		edges:   make(map[string][]string),
		impls:   make(map[methodShape][]string),
		roots:   make(map[string]bool),
		ifaceBy: make(map[string]methodShape),
	}
	for _, pkg := range pkgs {
		g.collectImpls(pkg)
	}
	for _, pkg := range pkgs {
		g.collectEdges(pkg)
	}
	return g.propagate()
}

// collectImpls records every concrete method declared in the package, keyed
// by shape, so interface calls can fan out to them.
func (g *callGraph) collectImpls(pkg *load.Package) {
	scope := pkg.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			g.impls[shapeOf(m)] = append(g.impls[shapeOf(m)], funcKey(m))
		}
	}
}

// collectEdges walks every function declaration of the package, recording
// its root annotation and outgoing edges.
func (g *callGraph) collectEdges(pkg *load.Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			caller := funcKey(fn)
			if hasStepFlowDirective(fd) {
				g.roots[caller] = true
			}
			g.walkBody(pkg, caller, fd.Body)
		}
	}
}

// hasStepFlowDirective reports whether the declaration's doc comment carries
// a //mdm:stepflow directive.
func hasStepFlowDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		for _, key := range commentKeys(c) {
			if key == StepFlowKey {
				return true
			}
		}
	}
	return false
}

// walkBody records every outgoing edge of one function body: direct calls
// (including go and defer), interface calls, calls through bound fields,
// named functions and bound fields passed as call arguments, and the
// bindings a function value assigned to a func-typed field makes.
func (g *callGraph) walkBody(pkg *load.Package, caller string, body *ast.BlockStmt) {
	info := pkg.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if fk := funcFieldKey(info, lhs); fk != "" {
					if fn := funcValueOf(info, n.Rhs[i]); fn != nil {
						g.edges[fk] = append(g.edges[fk], funcKey(fn))
					}
				}
			}
		case *ast.CallExpr:
			key := funcFieldKey(info, n.Fun)
			if fn := calleeFunc(info, n); fn != nil {
				key = funcKey(fn)
				if recvIsInterface(fn) {
					g.ifaceBy[key] = shapeOf(fn)
				}
			}
			if key == "" {
				return true
			}
			g.edges[caller] = append(g.edges[caller], key)
			// A function value handed to a callee is assumed invoked inside
			// it: the edge goes callee → argument, so callbacks passed into
			// hot-path functions (Integrator.Run(n, observe)) inherit their
			// stepflow status from the receiver of the value, not the caller.
			for _, arg := range n.Args {
				if af := funcValueOf(info, arg); af != nil {
					g.edges[key] = append(g.edges[key], funcKey(af))
				} else if fk := funcFieldKey(info, arg); fk != "" {
					g.edges[key] = append(g.edges[key], fk)
				}
			}
		}
		return true
	})
}

// funcValueOf resolves an expression used as a value (not called) to the
// named function or method it denotes, or nil.
func funcValueOf(info *types.Info, expr ast.Expr) *types.Func {
	var id *ast.Ident
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// funcFieldKey names the func-typed struct field expr selects, or "" when it
// selects none: the graph node standing for the functions bound to it.
func funcFieldKey(info *types.Info, expr ast.Expr) string {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	v, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() || v.Pkg() == nil {
		return ""
	}
	if _, ok := v.Type().Underlying().(*types.Signature); !ok {
		return ""
	}
	return "field " + v.Pkg().Path() + "." + v.Name() + " " + types.TypeString(v.Type(), nil)
}

// recvIsInterface reports whether fn is an interface method.
func recvIsInterface(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// propagate runs the BFS from the annotated roots, fanning interface-method
// nodes out to the module's shape-matching concrete methods.
func (g *callGraph) propagate() *Facts {
	reach := make(map[string]bool)
	var queue []string
	enqueue := func(key string) {
		if !reach[key] {
			reach[key] = true
			queue = append(queue, key)
		}
	}
	for root := range g.roots {
		enqueue(root)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range g.edges[cur] {
			enqueue(next)
		}
		if shape, ok := g.ifaceBy[cur]; ok {
			for _, impl := range g.impls[shape] {
				enqueue(impl)
			}
		}
	}
	for key := range reach {
		if strings.HasPrefix(key, "field ") {
			delete(reach, key) // a bound field is a graph node, not a function
		}
	}
	roots := make([]string, 0, len(g.roots))
	for root := range g.roots {
		roots = append(roots, root)
	}
	sort.Strings(roots)
	return &Facts{stepflow: reach, roots: roots}
}

//
// Helpers shared by the stepflow analyzers.
//

// stepFlowFuncs yields every function declaration in the pass that the facts
// place on the hot path, skipping test files: the determinism contract binds
// production step code, and test doubles pulled in through the interface
// fan-out would otherwise drown the signal.
func stepFlowFuncs(pass *Pass, visit func(fd *ast.FuncDecl, fn *types.Func)) {
	if pass.Facts == nil {
		return
	}
	for _, file := range pass.Files {
		name := pass.Fset.Position(file.FileStart).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if fn == nil || !pass.Facts.StepFlow(fn) {
				continue
			}
			visit(fd, fn)
		}
	}
}
