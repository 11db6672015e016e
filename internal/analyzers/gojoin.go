package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// GoJoin flags goroutines launched without a join or error-collection path.
// A goroutine whose body never signals completion — no channel send, no
// close, no sync.WaitGroup Done/Wait — cannot be awaited by its launcher, so
// its failure is invisible and its work may still be in flight when the
// launcher tears shared state down. That is exactly the bug class the force
// pipeline's unconditional join exists to prevent: the recovery ladder
// assumes no engine pass outlives its step. Launches of functions from other
// packages are not resolvable here and are left alone; deliberately detached
// process-lifetime goroutines carry a reviewed //mdm:gojoinok comment. Test
// files are exempt (hang tests wedge goroutines on purpose).
var GoJoin = &Analyzer{
	Name:     "gojoin",
	Doc:      "check launched goroutines signal completion via a channel or WaitGroup",
	Suppress: "gojoinok",
	Run:      runGoJoin,
}

func runGoJoin(pass *Pass) {
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.FileStart).Filename, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			for _, body := range launchedBodies(pass, gs) {
				if !signalsCompletion(pass, body) {
					pass.Reportf(gs.Pos(),
						"goroutine body has no join path (no channel send, close, or WaitGroup Done/Wait): the launcher cannot await it or collect its error")
					break
				}
			}
			return true
		})
	}
}

// launchedBodies resolves the bodies a go statement may launch: a function
// literal inline, a same-package named function or method, or — through a
// func-typed variable or field, such as a method value bound once — the
// same-package methods that variable is ever assigned. Calls into other
// packages, and variables holding anything but same-package method values,
// return nil: their bodies are not known here, and flagging what cannot be
// inspected would be noise.
func launchedBodies(pass *Pass, gs *ast.GoStmt) []*ast.BlockStmt {
	fun := ast.Unparen(gs.Call.Fun)
	if lit, ok := fun.(*ast.FuncLit); ok {
		return []*ast.BlockStmt{lit.Body}
	}
	if fn := calleeFunc(pass.Info, gs.Call); fn != nil {
		if fn.Pkg() != pass.Pkg {
			return nil
		}
		if body := funcDeclBody(pass, fn); body != nil {
			return []*ast.BlockStmt{body}
		}
		return nil
	}
	if v := funcVar(pass, fun); v != nil {
		return methodValueBodies(pass, v)
	}
	return nil
}

// funcVar is the variable or field a call expression's function is read
// from, or nil.
func funcVar(pass *Pass, e ast.Expr) *types.Var {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	v, _ := pass.Info.ObjectOf(id).(*types.Var)
	return v
}

// methodValueBodies returns the bodies of the methods v is assigned in the
// package — by assignment or a composite literal's keyed field — or nil if
// v is never assigned or is assigned anything but a same-package method
// value.
func methodValueBodies(pass *Pass, v *types.Var) []*ast.BlockStmt {
	var bodies []*ast.BlockStmt
	resolved := true
	bind := func(rhs ast.Expr) {
		var body *ast.BlockStmt
		if sel, ok := ast.Unparen(rhs).(*ast.SelectorExpr); ok {
			if s := pass.Info.Selections[sel]; s != nil && s.Kind() == types.MethodVal && s.Obj().Pkg() == pass.Pkg {
				body = funcDeclBody(pass, s.Obj().(*types.Func))
			}
		}
		if body == nil {
			resolved = false
			return
		}
		bodies = append(bodies, body)
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					if funcVar(pass, lhs) == v {
						bind(n.Rhs[i])
					}
				}
			case *ast.KeyValueExpr:
				if key, ok := n.Key.(*ast.Ident); ok && pass.Info.ObjectOf(key) == v {
					bind(n.Value)
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) && pass.Info.ObjectOf(name) == v {
						bind(n.Values[i])
					}
				}
			}
			return true
		})
	}
	if !resolved {
		return nil
	}
	return bodies
}

// funcDeclBody finds the declaration body of a package-local function.
func funcDeclBody(pass *Pass, fn *types.Func) *ast.BlockStmt {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && pass.Info.Defs[fd.Name] == fn {
				return fd.Body
			}
		}
	}
	return nil
}

// signalsCompletion reports whether the body (including nested literals and
// deferred closures) contains a completion signal the launcher side can wait
// on: a channel send, a close, or a sync.WaitGroup Done/Wait.
func signalsCompletion(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" {
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
					found = true
					break
				}
			}
			fn := calleeFunc(pass.Info, n)
			if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync" &&
				(fn.Name() == "Done" || fn.Name() == "Wait") {
				found = true
			}
		}
		return !found
	})
	return found
}
