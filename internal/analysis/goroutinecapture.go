package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GoroutineCapture flags writes to captured shared pixel state from
// inside `go func` literals unless the write is indexed by a per-worker
// variable. The SMA data-parallel drivers (TrackPreparedParallelCtx, TrackMasPar)
// rely on a partitioning discipline: every worker goroutine may write
// res.Flow/res.Err only at coordinates derived from its own work
// assignment — a value received from the work channel or passed as a
// literal parameter. A write indexed by anything else is either a race
// or a partitioning bug; both reproduce only under load and -race.
//
// "Keyed" variables are the literal's parameters, variables bound by
// channel receives (`for y := range rows`, `v := <-ch`), and anything
// transitively computed from those. The analyzer flags:
//
//   - calls to mutating grid methods (Config.MutatorNames) on captured
//     *grid.Grid / *grid.VectorField values with no keyed argument;
//   - index-assignments into captured slices with no keyed index.
var GoroutineCapture = &Analyzer{
	Name: "goroutinecapture",
	Doc:  "goroutine writes to captured state must be keyed per-worker",
	Run:  runGoroutineCapture,
}

func runGoroutineCapture(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
				checkGoLit(p, lit)
			}
			return true
		})
	}
}

func checkGoLit(p *Pass, lit *ast.FuncLit) {
	info := p.Pkg.Info

	// Objects declared inside the literal (captured = everything else).
	declared := map[types.Object]bool{}
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				declared[obj] = true
			}
		}
		return true
	})

	// Keyed objects: parameters, channel receives, and their transitive
	// assignments (fixed point).
	keyed := map[types.Object]bool{}
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil {
				keyed[obj] = true
			}
		}
	}
	mentionsKeyed := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && keyed[info.Uses[id]] {
				found = true
			}
			return !found
		})
		return found
	}
	hasReceive := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				found = true
			}
			return !found
		})
		return found
	}
	markLHS := func(lhs []ast.Expr) bool {
		changed := false
		for _, l := range lhs {
			id, ok := l.(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj != nil && !keyed[obj] {
				keyed[obj] = true
				changed = true
			}
		}
		return changed
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if tv, ok := info.Types[n.X]; ok {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan && n.Key != nil {
						if markLHS([]ast.Expr{n.Key}) {
							changed = true
						}
					}
				}
			case *ast.AssignStmt:
				carry := false
				for _, r := range n.Rhs {
					if hasReceive(r) || mentionsKeyed(r) {
						carry = true
						break
					}
				}
				if carry && markLHS(n.Lhs) {
					changed = true
				}
			}
			return true
		})
	}

	// Flag unkeyed writes to captured state.
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || !p.Cfg.MutatorNames[sel.Sel.Name] {
				return true
			}
			root := rootObject(info, sel.X)
			if root == nil || declared[root] || !isGridType(p, info, sel.X) {
				return true
			}
			for _, a := range n.Args {
				if mentionsKeyed(a) {
					return true
				}
			}
			p.Reportf(n.Pos(), "goroutine calls %s.%s on captured shared state with no per-worker index; key the write by a channel-received or parameter value", exprName(sel.X), sel.Sel.Name)
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				ix, ok := l.(*ast.IndexExpr)
				if !ok {
					continue
				}
				root := rootObject(info, ix.X)
				if root == nil || declared[root] {
					continue
				}
				if tv, ok := info.Types[ix.X]; ok {
					if _, isSlice := tv.Type.Underlying().(*types.Slice); !isSlice {
						continue
					}
				}
				if mentionsKeyed(ix.Index) {
					continue
				}
				p.Reportf(ix.Pos(), "goroutine writes captured slice %s at an unkeyed index; key the write by a channel-received or parameter value", exprName(ix.X))
			}
		}
		return true
	})
}

// rootObject unwraps selector/index chains to the base identifier's object.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return info.Uses[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isGridType reports whether e's type (through pointers) is a named type
// of the shared pixel-state package.
func isGridType(p *Pass, info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return strings.HasSuffix(named.Obj().Pkg().Path(), p.Cfg.GridPkgSuffix)
}

func exprName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprName(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprName(x.X) + "[...]"
	case *ast.ParenExpr:
		return exprName(x.X)
	}
	return "expr"
}
