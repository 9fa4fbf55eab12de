// Call graph: a CHA-style (class-hierarchy analysis) static call graph
// over the loaded packages, built on go/types only. It is the substrate
// the interprocedural analyzers (dettaint, purity) run on.
//
// Resolution rules, conservative in the CHA tradition:
//
//   - Direct calls and method calls on concrete receivers resolve to the
//     single callee.
//   - Interface method calls resolve to the matching method of EVERY
//     loaded concrete type that implements the interface — an
//     over-approximation that never misses a real callee among the
//     loaded packages.
//   - Calls through function values resolve to every address-taken
//     function or function literal with an identical signature.
//   - A function literal's effects always belong to its enclosing
//     function (the literal may run later, on another goroutine, but it
//     was created — and its captures wired — here), so the graph gives
//     the encloser an edge to each of its literals.
//   - A reachability graph (unreached's) also has an edge to every
//     function a body uses as a value, and a node per package for its
//     variable initialisers.
//
// Functions whose bodies are outside the loaded packages (standard
// library, export-data-only imports) become external nodes: they have no
// out-edges, and the analyzers decide what to assume about them from
// intrinsic tables (taint sources, effect whitelists).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// edgeKind records how a call edge was resolved.
type edgeKind uint8

const (
	edgeStatic edgeKind = iota
	edgeInterface
	edgeFuncValue
	edgeEncloses
	edgeRef
)

// cgEdge is one resolved call site.
type cgEdge struct {
	callee *cgNode
	pos    token.Position
	kind   edgeKind
}

// cgNode is one function in the call graph: a declared function or
// method, a function literal, an external (body-less) function, or a
// package's variable initialisers (fn and lit nil, doc synthesized).
type cgNode struct {
	fn  *types.Func   // nil for function literals and initialisers
	lit *ast.FuncLit  // nil for declared/external functions
	pkg *Package      // package holding the body; nil for external nodes
	doc *ast.FuncDecl // declaration, when the body is loaded

	name string
	pos  token.Position

	// matchSig is the node's callable signature with any receiver
	// stripped, rendered with package-path qualifiers, for matching
	// against calls through function values. A string key rather than a
	// *types.Signature because signatures from different type-check
	// universes (source vs export data) never compare types.Identical.
	matchSig string

	enclosing *cgNode // for literals: the function that created them

	edges   []cgEdge
	edgeIdx map[*cgNode]bool
	walked  bool
	// unresolved records call sites whose callees could not be bounded:
	// interface calls with no loaded implementation, or func-value calls
	// matching no address-taken function.
	unresolved []token.Position
}

// body returns the node's function body, or nil for external nodes.
func (n *cgNode) body() *ast.BlockStmt {
	switch {
	case n.lit != nil:
		return n.lit.Body
	case n.doc != nil:
		return n.doc.Body
	}
	return nil
}

func (n *cgNode) addEdge(callee *cgNode, pos token.Position, kind edgeKind) {
	if callee == nil || callee == n {
		return
	}
	if n.edgeIdx == nil {
		n.edgeIdx = make(map[*cgNode]bool)
	}
	if n.edgeIdx[callee] {
		return
	}
	n.edgeIdx[callee] = true
	n.edges = append(n.edges, cgEdge{callee: callee, pos: pos, kind: kind})
}

// CallGraph indexes the nodes of the loaded packages.
type CallGraph struct {
	// decls is keyed by types.Func.FullName, not object identity: each
	// source-checked package resolves its imports from export data, so
	// one declared function is seen through SEVERAL *types.Func objects —
	// its own source object plus one per importing universe. FullName is
	// the canonical cross-universe identity.
	decls map[string]*cgNode
	lits  map[*ast.FuncLit]*cgNode
	// all lists the nodes with loaded bodies in deterministic
	// (package, position) order; external nodes are reachable only
	// through edges.
	all []*cgNode

	// anns holds the function annotations of every loaded package.
	anns map[*types.Func]*FuncAnn
}

// ann returns the node's function annotation, if any. Literals inherit
// their enclosing declaration's annotation: the encloser's claim or
// escape covers the helpers it creates.
func (g *CallGraph) ann(n *cgNode) *FuncAnn {
	for ; n != nil; n = n.enclosing {
		if n.fn != nil {
			return g.anns[n.fn]
		}
	}
	return nil
}

// nodeFor returns (creating on demand) the node of a declared function.
// Functions without loaded bodies become external nodes. Pass 1 creates
// every source-declared node before any body is walked, so an
// export-data view of a module function folds into its source node.
func (g *CallGraph) nodeFor(fn *types.Func) *cgNode {
	fn = fn.Origin()
	key := fn.FullName()
	if n := g.decls[key]; n != nil {
		return n
	}
	n := &cgNode{fn: fn, name: shortFuncName(fn), matchSig: sigKey(fn.Type().(*types.Signature))}
	g.decls[key] = n
	return n
}

// sigKey renders a signature — receiver dropped, parameter names
// elided — with package-path qualifiers, so signatures compare equal
// exactly when types.Identical would hold, even across type-check
// universes (where types.Identical itself fails on named types).
func sigKey(sig *types.Signature) string {
	if sig == nil {
		return ""
	}
	q := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	b.WriteString("func(")
	for i := 0; i < sig.Params().Len(); i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		if sig.Variadic() && i == sig.Params().Len()-1 {
			b.WriteString("...")
		}
		b.WriteString(types.TypeString(sig.Params().At(i).Type(), q))
	}
	b.WriteString(")(")
	for i := 0; i < sig.Results().Len(); i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(types.TypeString(sig.Results().At(i).Type(), q))
	}
	b.WriteString(")")
	return b.String()
}

// shortFuncName renders a function for chain diagnostics:
// "time.Now", "sim.(*Simulator).buildSegment", "sim.Plan.Equal".
func shortFuncName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := types.TypeString(sig.Recv().Type(), func(p *types.Package) string { return p.Name() })
		if rest, ok := strings.CutPrefix(t, "*"); ok {
			if i := strings.LastIndexByte(rest, '.'); i >= 0 {
				return rest[:i] + ".(*" + rest[i+1:] + ")." + fn.Name()
			}
			return "(*" + rest + ")." + fn.Name()
		}
		return t + "." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// buildCallGraph constructs the call graph of the loaded packages, a
// reachability graph when refs is set.
func buildCallGraph(pkgs []*Package, anns map[*types.Func]*FuncAnn, refs bool) *CallGraph {
	g := &CallGraph{
		decls: make(map[string]*cgNode),
		lits:  make(map[*ast.FuncLit]*cgNode),
		anns:  anns,
	}

	// Pass 1: nodes for every declared function with a loaded body, and
	// the concrete-type universe for interface resolution.
	var concrete []types.Type
	seenType := make(map[types.Type]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				var n *cgNode
				if fd.Recv == nil && fd.Name.Name == "init" {
					// A package may declare several; nothing calls them.
					n = &cgNode{fn: fn, name: shortFuncName(fn)}
				} else {
					n = g.nodeFor(fn)
				}
				n.pkg, n.doc = pkg, fd
				n.pos = pkg.Fset.Position(fd.Pos())
				g.all = append(g.all, n)
			}
		}
		if refs {
			if n := initialisers(pkg); n != nil {
				g.all = append(g.all, n)
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			t := tn.Type()
			if types.IsInterface(t) || seenType[t] {
				continue
			}
			seenType[t] = true
			concrete = append(concrete, t)
		}
	}
	sort.Slice(concrete, func(i, j int) bool {
		return types.TypeString(concrete[i], nil) < types.TypeString(concrete[j], nil)
	})

	// Pass 2: walk every body, creating literal nodes, static/interface
	// edges, and the address-taken set feeding func-value resolution.
	b := &cgBuilder{g: g, concrete: concrete, refs: refs}
	for _, n := range append([]*cgNode(nil), g.all...) { // literals append to g.all
		b.walkBody(n)
	}

	// Pass 3: bound every func-value call by the address-taken set.
	for _, site := range b.dynSites {
		matched := false
		for _, cand := range b.taken {
			if site.sig == cand.matchSig {
				site.caller.addEdge(cand, site.pos, edgeFuncValue)
				matched = true
			}
		}
		if !matched {
			site.caller.unresolved = append(site.caller.unresolved, site.pos)
		}
	}
	return g
}

// dynSite is a call through a function value, resolved in pass 3.
type dynSite struct {
	caller *cgNode
	sig    string
	pos    token.Position
}

type cgBuilder struct {
	g        *CallGraph
	concrete []types.Type
	refs     bool
	dynSites []dynSite
	taken    []*cgNode
	takenSet map[*cgNode]bool
}

// initialisers returns a node whose body is pkg's package-level variable
// initialisers, or nil when it declares none.
func initialisers(pkg *Package) *cgNode {
	var body []ast.Stmt
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				for _, v := range spec.(*ast.ValueSpec).Values {
					body = append(body, &ast.ExprStmt{X: v})
				}
			}
		}
	}
	if len(body) == 0 {
		return nil
	}
	return &cgNode{
		pkg:  pkg,
		doc:  &ast.FuncDecl{Name: ast.NewIdent("init"), Body: &ast.BlockStmt{List: body}},
		name: pkg.Types.Name() + ".init$vars",
		pos:  pkg.Fset.Position(body[0].Pos()),
	}
}

func (b *cgBuilder) markTaken(n *cgNode) {
	if n == nil {
		return
	}
	if b.takenSet == nil {
		b.takenSet = make(map[*cgNode]bool)
	}
	if !b.takenSet[n] {
		b.takenSet[n] = true
		b.taken = append(b.taken, n)
	}
}

// walkBody resolves the calls of one node's body. Function literals
// create child nodes walked recursively (they are appended to g.all by
// newLit, but the explicit recursion keeps ownership clear).
func (b *cgBuilder) walkBody(n *cgNode) {
	body := n.body()
	if body == nil || n.walked {
		return
	}
	n.walked = true
	info := n.pkg.Info

	// callFun marks the terminal identifier of each call's Fun, so pass
	// 2 can tell a call from an address-taken reference.
	callFun := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			callFun[fun] = true
		case *ast.SelectorExpr:
			callFun[fun.Sel] = true
		}
		return true
	})

	var walk func(x ast.Node) bool
	walk = func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			lit := b.newLit(n, x)
			n.addEdge(lit, n.pkg.Fset.Position(x.Pos()), edgeEncloses)
			b.markTaken(lit) // a literal not immediately invoked can flow anywhere
			b.walkBody(lit)
			return false
		case *ast.CallExpr:
			b.resolveCall(n, x, callFun)
			// Children (args, and Fun when it is itself an expression)
			// still need walking for literals and references.
			for _, arg := range x.Args {
				ast.Inspect(arg, walk)
			}
			if fl, ok := ast.Unparen(x.Fun).(*ast.FuncLit); ok {
				// Immediately-invoked literal: resolveCall added the
				// edge; walk its body without marking it taken.
				b.walkBody(b.newLit(n, fl))
			} else {
				ast.Inspect(x.Fun, walk)
			}
			return false
		case *ast.Ident:
			if fn, ok := info.Uses[x].(*types.Func); ok && !callFun[x] {
				b.reference(n, fn, x)
			}
		case *ast.SelectorExpr:
			if fn, ok := info.Uses[x.Sel].(*types.Func); ok && !callFun[x.Sel] {
				b.reference(n, fn, x)
			}
		}
		return true
	}
	ast.Inspect(body, walk)
}

// reference records fn used as a value at x in n's body: it joins the
// address-taken set, and a reachability graph gives n an edge to it.
func (b *cgBuilder) reference(n *cgNode, fn *types.Func, x ast.Node) {
	callee := b.g.nodeFor(fn)
	b.markTaken(callee)
	if b.refs {
		n.addEdge(callee, n.pkg.Fset.Position(x.Pos()), edgeRef)
	}
}

func (b *cgBuilder) newLit(parent *cgNode, x *ast.FuncLit) *cgNode {
	if n := b.g.lits[x]; n != nil {
		return n
	}
	pos := parent.pkg.Fset.Position(x.Pos())
	sig, _ := parent.pkg.Info.TypeOf(x).(*types.Signature)
	n := &cgNode{
		lit: x, pkg: parent.pkg, enclosing: parent,
		name:     fmt.Sprintf("%s.func@%d", parent.name, pos.Line),
		pos:      pos,
		matchSig: sigKey(sig),
	}
	b.g.lits[x] = n
	b.g.all = append(b.g.all, n)
	return n
}

// resolveCall classifies one call expression and adds its edges.
func (b *cgBuilder) resolveCall(caller *cgNode, call *ast.CallExpr, callFun map[*ast.Ident]bool) {
	info := caller.pkg.Info
	fset := caller.pkg.Fset
	pos := fset.Position(call.Lparen)
	fun := ast.Unparen(call.Fun)

	// Type conversions and builtin calls are not calls.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return
	}

	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			caller.addEdge(b.g.nodeFor(obj), pos, edgeStatic)
			return
		case *types.Builtin, *types.TypeName:
			return
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			m := sel.Obj().(*types.Func)
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				b.resolveInterfaceCall(caller, iface, m, pos)
				return
			}
			caller.addEdge(b.g.nodeFor(m), pos, edgeStatic)
			return
		}
		switch obj := info.Uses[fun.Sel].(type) {
		case *types.Func:
			caller.addEdge(b.g.nodeFor(obj), pos, edgeStatic)
			return
		case *types.Builtin, *types.TypeName:
			return
		}
	case *ast.FuncLit:
		lit := b.newLit(caller, fun)
		caller.addEdge(lit, pos, edgeStatic)
		return
	}

	// Anything else callable is a call through a function value.
	if sig, ok := info.TypeOf(call.Fun).(*types.Signature); ok {
		b.dynSites = append(b.dynSites, dynSite{caller: caller, sig: sigKey(sig), pos: pos})
	}
}

// resolveInterfaceCall adds a CHA edge to method m of every loaded
// concrete type implementing iface.
func (b *cgBuilder) resolveInterfaceCall(caller *cgNode, iface *types.Interface, m *types.Func, pos token.Position) {
	found := false
	for _, t := range b.concrete {
		var impl types.Type
		switch {
		case types.Implements(t, iface):
			impl = t
		case types.Implements(types.NewPointer(t), iface):
			impl = types.NewPointer(t)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, m.Pkg(), m.Name())
		if fn, ok := obj.(*types.Func); ok {
			caller.addEdge(b.g.nodeFor(fn), pos, edgeInterface)
			found = true
		}
	}
	if !found {
		caller.unresolved = append(caller.unresolved, pos)
	}
}

// pathFrom reconstructs one shortest call chain from n to a node
// satisfying goal, as "a → b → c". Edges through impure-annotated
// callees are not followed (propagation stopped there).
func (g *CallGraph) pathFrom(n *cgNode, goal func(*cgNode) bool) []*cgNode {
	type hop struct {
		node *cgNode
		prev *hop
	}
	visited := map[*cgNode]bool{n: true}
	queue := []*hop{{node: n}}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		if goal(h.node) {
			var path []*cgNode
			for ; h != nil; h = h.prev {
				path = append([]*cgNode{h.node}, path...)
			}
			return path
		}
		for _, e := range h.node.edges {
			if visited[e.callee] {
				continue
			}
			if a := g.ann(e.callee); a != nil && a.Impure {
				continue
			}
			visited[e.callee] = true
			queue = append(queue, &hop{node: e.callee, prev: h})
		}
	}
	return nil
}

// chainString renders a call path for a diagnostic message.
func chainString(path []*cgNode) string {
	parts := make([]string, len(path))
	for i, n := range path {
		parts[i] = n.name
	}
	return strings.Join(parts, " → ")
}
