package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeadExport flags exported package-level functions and methods in
// internal/ packages that no non-test file of the tree references
// outside the function's own body. The loader never reads _test.go
// files, so a function only tests call is production code with no
// production caller: it is compiled, documented and maintained, and the
// linker drops it from every binary. Delete it, unexport it, or keep it
// with a reasoned allow naming what it is kept for (an experiment, a
// documented substrate, the oracle a test compares against).
//
// A reference is any use of the function's object — a call, a method
// value, a function value passed or stored — from cmd/, examples/,
// smaperf/ or any other loaded package, including the function's own
// package. Uses inside the function's own body (recursion) do not count.
// A method that satisfies an interface is exempt, whether the interface
// is named, anonymous (interface{ Check() error }) or the standard
// library's (error, fmt.Stringer, http.Handler): it can be reached by a
// dynamic call no identifier shows.
//
// The verdict is tree-wide: it reads Config.Refs, which the smavet
// driver builds once from every package of the module, so a subset
// pattern gets the same findings as ./... does. The severity is warn, so
// the baseline ratchet applies, but the tree starts clean and the
// baseline holds no deadexport entry.
var DeadExport = &Analyzer{
	Name: "deadexport",
	Doc:  "no exported internal/ function or method that only tests reach",
	Run:  runDeadExport,
}

// RefIndex records which functions and methods the loaded packages
// reference, and which interfaces they can see, for deadexport.
type RefIndex struct {
	refs map[*types.Func]bool
	// ifaces holds every non-empty interface type the loaded packages
	// declare, spell out anonymously or import, keyed by method name.
	ifaces map[string][]*types.Interface
}

// IndexRefs builds the reference index over pkgs. Every function and
// method used from outside its own body is marked referenced.
func IndexRefs(pkgs []*Package) *RefIndex {
	idx := &RefIndex{refs: map[*types.Func]bool{}, ifaces: map[string][]*types.Interface{}}
	seenIface := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seenIface[it] {
			return
		}
		seenIface[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			idx.ifaces[name] = append(idx.ifaces[name], it)
		}
	}
	addIface(errorIface)

	seenPkg := map[*types.Package]bool{}
	var scan func(*types.Package)
	scan = func(tp *types.Package) {
		if seenPkg[tp] {
			return
		}
		seenPkg[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			addIface(tn.Type())
		}
		for _, imp := range tp.Imports() {
			scan(imp)
		}
	}

	for _, pkg := range pkgs {
		scan(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				var self types.Object
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = pkg.Info.Defs[fd.Name]
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
						if fn = fn.Origin(); fn != self {
							idx.refs[fn] = true
						}
					}
					return true
				})
			}
		}
	}
	return idx
}

// satisfiesInterface reports whether method fn belongs to an indexed
// interface that its receiver's type, or a pointer to it, implements.
func (idx *RefIndex) satisfiesInterface(fn *types.Func) bool {
	named := recvNamed(fn)
	if named == nil || named.TypeParams().Len() > 0 {
		return true // generic receivers are not checked
	}
	implements := func(it *types.Interface) bool {
		return types.Implements(named, it) || types.Implements(types.NewPointer(named), it)
	}
	if errorsProtocol[fn.Name()] && implements(errorIface) {
		return true
	}
	for _, it := range idx.ifaces[fn.Name()] {
		if implements(it) {
			return true
		}
	}
	return false
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// errorsProtocol names the error methods package errors calls through
// interfaces it declares inside function bodies, where no package scope
// shows them.
var errorsProtocol = map[string]bool{"Unwrap": true, "Is": true, "As": true}

func runDeadExport(p *Pass) {
	if !strings.Contains(p.Pkg.Path+"/", "/internal/") {
		return
	}
	idx := p.Cfg.Refs
	if idx == nil {
		idx = IndexRefs([]*Package{p.Pkg})
	}
	funcDecls(p.Pkg, func(fd *ast.FuncDecl) {
		if !fd.Name.IsExported() {
			return
		}
		fn, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func)
		if !ok || idx.refs[fn] {
			return
		}
		if fd.Recv != nil {
			if idx.satisfiesInterface(fn) {
				return
			}
			p.Warnf(fd.Name.Pos(), "method %s.%s has no reference outside tests and satisfies no interface; delete it, unexport it, or allow it with the reason it stays",
				recvNamed(fn).Obj().Name(), fn.Name())
			return
		}
		p.Warnf(fd.Name.Pos(), "function %s has no reference outside tests; delete it, unexport it, or allow it with the reason it stays", fn.Name())
	})
}

// recvNamed returns the named type of method fn's receiver, nil if the
// receiver is not a (pointer to a) named type.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, _ := recv.(*types.Named)
	return named
}
