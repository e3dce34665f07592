package analysis

import (
	"go/ast"
	"go/types"
)

// HotAlloc flags make/new/append inside the per-pixel kernel functions.
// One SMA timestep at paper scale evaluates the hypothesis kernel ~10⁹
// times (512² pixels × up to 81 hypotheses × template pixels); an
// allocation inside that path turns into GC pressure that dwarfs the
// arithmetic. Scratch space must be allocated once at tracker
// construction (see core.newBlockKernel) and reused.
//
// The kernel set is Config.KernelFuncs; cmd/smavet's -kernels flag
// extends it.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "no make/new/append in per-pixel kernel functions",
	Run:  runHotAlloc,
}

func runHotAlloc(p *Pass) {
	funcDecls(p.Pkg, func(fd *ast.FuncDecl) {
		if !p.Cfg.KernelFuncs[fd.Name.Name] || fd.Body == nil {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok {
				return true
			}
			if b, ok := p.Pkg.Info.Uses[id].(*types.Builtin); ok {
				switch b.Name() {
				case "make", "new", "append":
					p.Reportf(call.Pos(), "%s in per-pixel kernel %s; pre-allocate scratch at construction", b.Name(), fd.Name.Name)
				}
			}
			return true
		})
	})
}
