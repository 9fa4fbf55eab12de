// Unreached: non-test code that no binary runs. It walks a reachability
// graph of the non-test files from the roots — main of every main
// package under cmd/, examples/ and bench/, and every package's init
// functions and variable initialisers — following calls (CHA through
// interfaces), literals and functions used as values. A type a reached
// body uses is reachable, with the types its values contain; a method by
// which a reachable type implements an interface declared outside the
// analyzed source (fmt.Stringer, sort.Interface, types.Importer, …) is
// reached, since code outside the graph may call it. Every function or
// method under internal/ left unreached is reported: delete it, move it
// into the tests that use it, or keep it with a reasoned suppression when
// other packages' tests need it.
package analysis

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// Unreached reports non-test functions under internal/ that no binary
// reaches. Its findings hold only over the whole module, so it runs only
// on a whole-module load: rbvet ./... from the module root.
var Unreached = &Analyzer{
	Name:        "unreached",
	Doc:         "report non-test functions in internal/ that no main in cmd/, examples/ or bench/ reaches",
	RunAll:      runUnreached,
	WholeModule: true,
}

// isRootMain reports whether pkg builds one of the root binaries.
func isRootMain(pkg *Package) bool {
	if pkg.Types.Name() != "main" {
		return false
	}
	for _, dir := range []string{"cmd", "examples", "bench"} {
		if pathWithin(pkg.Path, ModulePath+"/"+dir) {
			return true
		}
	}
	return false
}

func runUnreached(p *AllPass) {
	// The graph covers non-test files only: a test's initialisers and
	// literals must not make anything look reached.
	var view []*Package
	for _, pkg := range append(append([]*Package(nil), p.Pkgs...), p.Roots...) {
		if strings.HasSuffix(pkg.Path, "_test") {
			continue
		}
		v := *pkg
		v.Files = slices.DeleteFunc(slices.Clone(pkg.Files), func(f *ast.File) bool {
			return strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go")
		})
		view = append(view, &v)
	}
	g := buildCallGraph(view, p.Anns, true)
	r := &reacher{g: g, ifaces: externalInterfaces(view), reached: make(map[*cgNode]bool), seen: make(map[string]bool)}
	for _, n := range g.all {
		switch {
		case n.lit != nil:
		case n.fn == nil, // variable initialisers
			n.doc.Recv == nil && n.fn.Name() == "init",
			n.doc.Recv == nil && n.fn.Name() == "main" && isRootMain(n.pkg):
			r.reach(n)
		}
	}
	for len(r.queue) > 0 {
		n := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		for _, e := range n.edges {
			// A func value was taken in a reached body, which reached it.
			if e.kind != edgeFuncValue {
				r.reach(e.callee)
			}
		}
		if body := n.body(); body != nil {
			ast.Inspect(body, func(x ast.Node) bool {
				if e, ok := x.(ast.Expr); ok {
					if tv, ok := n.pkg.Info.Types[e]; ok {
						r.useType(tv.Type)
					}
				}
				_, lit := x.(*ast.FuncLit)
				return !lit // a literal's own node inspects its body
			})
		}
	}
	for _, n := range g.all {
		if n.fn != nil && !r.reached[n] && pathWithin(n.pkg.Path, ModulePath+"/internal") {
			p.Reportf(n.pos, "%s is reached by no main in cmd/, examples/ or bench/: delete it, move it into the tests that use it, or keep it with a reasoned //rbvet:ignore unreached", n.name)
		}
	}
}

// externalInterfaces lists error and the non-empty interfaces declared in
// the packages the view imports but does not load from source.
func externalInterfaces(view []*Package) []*types.Interface {
	source := make(map[string]bool, len(view))
	for _, pkg := range view {
		source[pkg.Path] = true
	}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := make(map[*types.Package]bool)
	var visit func(*types.Package)
	visit = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok && !source[tp.Path()] {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range view {
		visit(pkg.Types)
	}
	return ifaces
}

// reacher is the reachability walk's state.
type reacher struct {
	g       *CallGraph
	ifaces  []*types.Interface
	reached map[*cgNode]bool
	queue   []*cgNode
	seen    map[string]bool // reachable named types
}

func (r *reacher) reach(n *cgNode) {
	if !r.reached[n] {
		r.reached[n] = true
		r.queue = append(r.queue, n)
	}
}

// useType marks t and the types its values contain reachable, reaching
// each method by which a reachable named type implements an external
// interface.
func (r *reacher) useType(t types.Type) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		if key := types.TypeString(t, nil); !r.seen[key] {
			r.seen[key] = true
			ptr := types.NewPointer(t)
			mset := types.NewMethodSet(ptr)
			for _, it := range r.ifaces {
				if mset.Len() == 0 || mset.Lookup(it.Method(0).Pkg(), it.Method(0).Name()) == nil || !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					if fn, ok := mset.Lookup(it.Method(i).Pkg(), it.Method(i).Name()).Obj().(*types.Func); ok {
						r.reach(r.g.nodeFor(fn))
					}
				}
			}
			r.useType(t.Underlying())
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			r.useType(t.Field(i).Type())
		}
	case interface{ Elem() types.Type }: // pointer, slice, array, map, chan
		r.useType(t.Elem())
	}
}
