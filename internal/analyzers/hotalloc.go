package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc is a heuristic allocation lint for the hot path. PR 5 drove the
// step path down to ~10 heap allocations per step by arena-ing every buffer a
// Forces call needs; an un-preallocated append, a fmt.Sprintf, a string
// concatenation or a captured-closure goroutine launch quietly undoes that —
// each is a per-step allocation (and for append, an amortized-copy one) that
// no test fails on. Flagged patterns in stepflow functions:
//
//   - append inside a loop: the growing-slice pattern; preallocate with
//     make(cap) in the constructor and index, or reuse an arena buffer.
//     Appends into a slice the function visibly preallocated — assigned from
//     a make with an explicit capacity, or rebound to x[:0] (the filter-in-
//     place idiom) — are exempt: they cannot regrow.
//   - fmt.Sprintf / fmt.Sprint / fmt.Sprintln: always allocates (fmt.Errorf
//     is exempt — error paths run once, on failure)
//   - non-constant string concatenation
//   - `go func(){...}` capturing outer variables: closure + goroutine per call
//
// Amortized allocations (a rebuild guarded by a geometry check, a buffer
// grown once then reused) are real but bounded; they carry reviewed
// //mdm:hotallocok -- suppressions naming the amortization.
var HotAlloc = &Analyzer{
	Name:     "hotalloc",
	Doc:      "flag per-step allocation patterns (growing append, Sprintf, string concat, capturing go closures) in stepflow code",
	Suppress: "hotallocok",
	Run:      runHotAlloc,
}

// sprintFuncs are the fmt functions that allocate on every call on the
// success path.
var sprintFuncs = map[string]bool{"Sprintf": true, "Sprint": true, "Sprintln": true}

func runHotAlloc(pass *Pass) {
	stepFlowFuncs(pass, func(fd *ast.FuncDecl, fn *types.Func) {
		checkAllocs(pass, fd, fd.Body, preallocatedRoots(pass, fd), false)
	})
}

// preallocatedRoots collects the base objects the function visibly sizes
// before appending: assigned from a 3-argument make (explicit capacity) or
// from a [:0] reslice of an existing backing array. Appends into those
// cannot regrow (the [:0] case amortizes across calls), so they are not
// per-step allocation bugs. Field assignments exempt the whole receiver —
// coarse, but a function that sizes one field of a buffer struct is sizing
// the struct.
func preallocatedRoots(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			sized := false
			switch e := ast.Unparen(rhs).(type) {
			case *ast.CallExpr:
				id, ok := ast.Unparen(e.Fun).(*ast.Ident)
				sized = ok && id.Name == "make" && isBuiltin(pass.Info, id) && len(e.Args) == 3
			case *ast.SliceExpr:
				lit, ok := e.High.(*ast.BasicLit)
				sized = ok && e.Low == nil && lit.Value == "0"
			}
			if !sized {
				continue
			}
			if obj := lvalueRoot(pass.Info, as.Lhs[i]); obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// checkAllocs walks one statement tree; inLoop tracks whether the walk is
// inside a for/range body of the function (where appends grow per step).
func checkAllocs(pass *Pass, fd *ast.FuncDecl, n ast.Node, prealloc map[types.Object]bool, inLoop bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch e := m.(type) {
		case *ast.ForStmt:
			if e.Body != nil {
				checkAllocs(pass, fd, e.Body, prealloc, true)
			}
			// Init/Cond/Post stay at the current loop depth.
			for _, sub := range []ast.Node{e.Init, e.Cond, e.Post} {
				if sub != nil {
					checkAllocs(pass, fd, sub, prealloc, inLoop)
				}
			}
			return false
		case *ast.RangeStmt:
			if e.Body != nil {
				checkAllocs(pass, fd, e.Body, prealloc, true)
			}
			return false
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(e.Call.Fun).(*ast.FuncLit); ok {
				if name := capturedVar(pass, lit); name != "" {
					pass.Reportf(e.Pos(),
						"go statement in hot-path function %s captures %s; the closure and goroutine allocate on every step — reuse a worker or pass state through a preallocated channel", fd.Name.Name, name)
				}
			}
			return true
		case *ast.CallExpr:
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" && isBuiltin(pass.Info, id) && inLoop {
				if len(e.Args) > 0 && prealloc[lvalueRoot(pass.Info, e.Args[0])] {
					return true
				}
				pass.Reportf(e.Pos(),
					"append in a loop in hot-path function %s grows its slice per step; preallocate with make(…, cap) or reuse an arena buffer", fd.Name.Name)
				return true
			}
			if callee := calleeFunc(pass.Info, e); callee != nil && callee.Pkg() != nil &&
				callee.Pkg().Path() == "fmt" && sprintFuncs[callee.Name()] {
				pass.Reportf(e.Pos(),
					"fmt.%s in hot-path function %s allocates on every call; format off the step path or use a preallocated buffer", callee.Name(), fd.Name.Name)
			}
			return true
		case *ast.BinaryExpr:
			if e.Op == token.ADD {
				if tv, ok := pass.Info.Types[e]; ok && tv.Value == nil && isString(tv.Type) {
					pass.Reportf(e.Pos(),
						"string concatenation in hot-path function %s allocates on every call; build the string off the step path", fd.Name.Name)
					return false // don't re-flag the nested operands of a + chain
				}
			}
			return true
		}
		return true
	})
}

// capturedVar names one variable the function literal captures from its
// enclosing function, or "" when the literal is self-contained.
func capturedVar(pass *Pass, lit *ast.FuncLit) string {
	// Objects defined inside the literal (params included) are not captures.
	local := make(map[types.Object]bool)
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.Info.Defs[id]; obj != nil {
				local[obj] = true
			}
		}
		return true
	})
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || local[obj] || obj.IsField() {
			return true
		}
		// Package-level variables are not per-call captures.
		if obj.Parent() != nil && obj.Parent().Parent() == types.Universe {
			return true
		}
		captured = obj.Name()
		return false
	})
	return captured
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isBuiltin reports whether id denotes a predeclared builtin function (so
// e.g. `append` is the real builtin, not a shadowing user function).
func isBuiltin(info *types.Info, id *ast.Ident) bool {
	_, ok := info.Uses[id].(*types.Builtin)
	return ok
}

// lvalueRoot resolves the base object of an assignable expression: the
// variable itself for identifiers, the indexed/selected variable for
// x[i] = ... and x.f = ... chains.
func lvalueRoot(info *types.Info, expr ast.Expr) types.Object {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			if e.Name == "_" {
				return nil
			}
			if obj := info.Uses[e]; obj != nil {
				return obj
			}
			return info.Defs[e]
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return nil
		}
	}
}
