package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ShardMerge flags floating-point read-modify-write accumulation into
// captured state from concurrently executed closures on the hot path: a
// `total += partial` or `dst[i] += v` inside a `go func(){...}` or a worker
// closure handed to another function. The repo's bit-identity contract
// tolerates parallelism only when shards write disjoint results (plain
// assignment to their own index range) and the launcher merges them in one
// fixed serial order afterward; an in-closure float accumulation makes the
// reduction order depend on goroutine scheduling — different sums on every
// run even when no race detector fires (and usually a data race too).
// Reviewed exceptions (a closure proven to run on one goroutine, an ordered
// channel join) carry //mdm:shardmergeok -- suppressions. Closures handed to
// the known-serial pair iterators of internal/cellindex run on the calling
// goroutine in fixed cell order and are exempt.
var ShardMerge = &Analyzer{
	Name:     "shardmerge",
	Doc:      "flag float += accumulation into captured state from goroutine/worker closures in stepflow code",
	Suppress: "shardmergeok",
	Run:      runShardMerge,
}

// shardSerialIterators are higher-order functions documented to invoke their
// callback on the calling goroutine in a fixed order; closures passed to them
// accumulate deterministically.
var shardSerialIterators = map[string]map[string]bool{
	"mdm/internal/cellindex": {
		"ForEachOrderedPair": true,
		"ForEachHalfPair":    true,
	},
}

// serialIterator reports whether fn is one of the known-serial callback
// iterators.
func serialIterator(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil && shardSerialIterators[fn.Pkg().Path()][fn.Name()]
}

func runShardMerge(pass *Pass) {
	stepFlowFuncs(pass, func(fd *ast.FuncDecl, fn *types.Func) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			var lit *ast.FuncLit
			launch := ""
			switch e := n.(type) {
			case *ast.GoStmt:
				if l, ok := ast.Unparen(e.Call.Fun).(*ast.FuncLit); ok {
					lit, launch = l, "goroutine"
				}
			case *ast.CallExpr:
				// A closure passed as an argument: a worker submission
				// (pool.Run, errgroup-style helpers) runs it concurrently;
				// treat every function-call operand conservatively, except
				// the iterators known to run their callback serially.
				if serialIterator(calleeFunc(pass.Info, e)) {
					return true
				}
				for _, arg := range e.Args {
					if l, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
						checkShardAccum(pass, fd, l, "worker closure")
					}
				}
				return true
			}
			if lit != nil {
				checkShardAccum(pass, fd, lit, launch)
			}
			return true
		})
	})
}

// checkShardAccum reports float compound assignments inside lit whose target
// is captured from the enclosing function.
func checkShardAccum(pass *Pass, fd *ast.FuncDecl, lit *ast.FuncLit, launch string) {
	local := make(map[types.Object]bool)
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.Info.Defs[id]; obj != nil {
				local[obj] = true
			}
		}
		return true
	})
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		default:
			return true
		}
		for _, lhs := range as.Lhs {
			tv, ok := pass.Info.Types[lhs]
			if !ok || !isFloat(tv.Type) {
				continue
			}
			obj := lvalueRoot(pass.Info, lhs)
			if obj == nil || local[obj] {
				continue
			}
			what := "float variable"
			if floatElem(obj.Type()) {
				what = "shared float slice"
			}
			pass.Reportf(as.Pos(),
				"%s in hot-path function %s accumulates into captured %s %s; scheduling decides the reduction order, breaking bit-identity — write per-shard results and merge them in fixed serial order after the join", launch, fd.Name.Name, what, obj.Name())
		}
		return true
	})
}
