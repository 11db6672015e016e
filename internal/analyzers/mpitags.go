package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

const mpiPkg = "mdm/internal/mpi"

// tagArgIndex maps the point-to-point methods of mpi.Comm to the position of
// their tag argument.
var tagArgIndex = map[string]int{
	"Send":         1,
	"Recv":         1,
	"RecvFloat64s": 1,
}

// sendMethods marks which of those methods are the sending side.
var sendMethods = map[string]bool{"Send": true}

// MPITags enforces the deterministic SPMD tag discipline of the in-process
// MPI substrate: tags passed to (*mpi.Comm).Send/Recv/RecvFloat64s must be
// named constants (not bare integer literals), and a tag constant that is
// only ever sent, or only ever received, within a package indicates a
// mismatched Send/Recv pair.
var MPITags = &Analyzer{
	Name:     "mpitags",
	Doc:      "check mpi Send/Recv tags are named constants with matched pairs",
	Suppress: "tagok",
	Run:      runMPITags,
}

type tagUse struct {
	sent, received bool
	firstPos       token.Pos
}

func runMPITags(pass *Pass) {
	uses := make(map[string]*tagUse)
	order := []string{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || !isCommMethod(fn) {
				return true
			}
			idx, ok := tagArgIndex[fn.Name()]
			if !ok || idx >= len(call.Args) {
				return true
			}
			tag := ast.Unparen(call.Args[idx])
			switch expr := tag.(type) {
			case *ast.BasicLit:
				pass.Reportf(tag.Pos(),
					"mpi %s with untyped literal tag %s; use a named tag constant", fn.Name(), expr.Value)
			case *ast.UnaryExpr:
				if lit, ok := expr.X.(*ast.BasicLit); ok {
					pass.Reportf(tag.Pos(),
						"mpi %s with untyped literal tag %s%s; use a named tag constant", fn.Name(), expr.Op, lit.Value)
				}
			default:
				if name, pos, ok := namedTagConst(pass.Info, tag); ok {
					u := uses[name]
					if u == nil {
						u = &tagUse{firstPos: pos}
						uses[name] = u
						order = append(order, name)
					}
					if sendMethods[fn.Name()] {
						u.sent = true
					} else {
						u.received = true
					}
				}
			}
			return true
		})
	}
	sort.Strings(order)
	for _, name := range order {
		u := uses[name]
		switch {
		case u.sent && !u.received:
			pass.Reportf(u.firstPos,
				"tag constant %s is sent but never received in this package; mismatched Send/Recv pair?", name)
		case u.received && !u.sent:
			pass.Reportf(u.firstPos,
				"tag constant %s is received but never sent in this package; mismatched Send/Recv pair?", name)
		}
	}
}

// isCommMethod reports whether fn is a method of mdm/internal/mpi.Comm.
func isCommMethod(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != mpiPkg {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Comm"
}

// namedTagConst resolves expr to a named integer constant.
func namedTagConst(info *types.Info, expr ast.Expr) (string, token.Pos, bool) {
	var id *ast.Ident
	switch e := expr.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return "", token.NoPos, false
	}
	c, ok := info.Uses[id].(*types.Const)
	if !ok {
		return "", token.NoPos, false
	}
	return c.Name(), id.Pos(), true
}
