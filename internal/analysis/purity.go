// Purity proofs: effect inference over the call graph, verifying that
// "memoizing pure functions" is a checked claim rather than a comment.
//
// The effect lattice, smallest to largest:
//
//	pure ⊑ pure-modulo-arguments ⊑ impure
//
// A function is PURE-MODULO-ARGUMENTS when its only effect is mutating
// memory reachable from its own parameters and receiver (advancing a
// *stats.RNG, filling a caller-supplied scratch buffer). That is the
// level memoization needs: the result is a function of the arguments,
// and recomputing on a cache miss — or racing a double computation — is
// observationally identical. //rbvet:pure claims exactly this level.
//
// IMPURE effects, each fatal to the claim:
//
//	global-write   — assignment to package-level state
//	chan           — channel send/receive/close/select
//	go             — spawning goroutines
//	taint          — reaching a determinism taint source (see taint.go)
//	unresolved     — a call the graph cannot bound (interface with no
//	                 loaded implementation, func value nothing matches)
//	external       — calling a body-less function outside the effect
//	                 whitelists, whose effects are unknowable
//
// Effects propagate callee-to-caller to a fixed point; function
// literals fold into their enclosing function; //rbvet:impure(reason)
// functions are trusted barriers contributing nothing. Known
// limitation, documented in DESIGN.md: writes through pointers held in
// locals are classified as argument mutation, so laundering a global
// through a local pointer evades the proof — rbvet is a reviewer's
// assistant, not an adversarial sandbox.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Purity verifies //rbvet:pure claims and the memoization registry.
var Purity = &Analyzer{
	Name:   "purity",
	Doc:    "prove //rbvet:pure and memoized functions pure modulo arguments (effect inference over the call graph)",
	RunAll: runPurity,
}

// effects is a bitmask of inferred function effects.
type effects uint16

const (
	effGlobalWrite effects = 1 << iota
	effChan
	effGo
	effTaint
	effUnresolved
	effExternal
	// effParamMutate is compatible with //rbvet:pure: mutation of memory
	// reachable from the function's own arguments.
	effParamMutate

	effImpureMask = effGlobalWrite | effChan | effGo | effTaint | effUnresolved | effExternal
)

var effectNames = []struct {
	bit  effects
	name string
}{
	{effGlobalWrite, "writes package-level state"},
	{effChan, "uses channels/select"},
	{effGo, "spawns goroutines"},
	{effTaint, "reaches a determinism taint source"},
	{effUnresolved, "calls through an unresolvable function value or interface"},
	{effExternal, "calls an external function with unknown effects"},
}

// memoizedRoots are the functions the sim segment table and its plan
// memo memoize: their results are stored and replayed, so they MUST be
// pure modulo arguments, and must say so in source with //rbvet:pure.
// Keyed by types.Func.FullName.
var memoizedRoots = map[string]string{
	"(*repro/internal/sim.Simulator).buildSegment":   "segment table (sim.segs)",
	"(*repro/internal/sim.Simulator).segmentMoments": "segment table's moments (segment.mom)",
	"(*repro/internal/sim.segment).eval":             "segment table's sample vectors (segment.samples)",
	"(*repro/internal/sim.Simulator).estimate":       "plan memo (segTable.plans)",
	"(*repro/internal/sim.segment).moments":          "stage kernel's moments (segment.mom)",
}

// pureExternalPkgs are standard-library packages whose functions are
// pure modulo arguments: computation, formatting-to-value, and
// collection shuffling with no ambient effects.
var pureExternalPkgs = map[string]bool{
	"cmp": true, "container/heap": true, "container/list": true,
	"encoding/binary": true, "errors": true, "hash": true,
	"hash/crc32": true, "hash/fnv": true, "hash/maphash": false,
	"math": true, "math/bits": true, "math/cmplx": true,
	"slices": true, "maps": true, "sort": true, "strconv": true,
	"strings": true, "bytes": true, "unicode": true, "unicode/utf8": true,
}

// argMutateExternalPkgs are packages whose functions mutate only
// argument-reachable state (locks, counters, wait groups) — compatible
// with pure-modulo-arguments.
var argMutateExternalPkgs = map[string]bool{
	"sync": true, "sync/atomic": true,
}

// pureExternalFuncs whitelists individual functions of mixed packages.
var pureExternalFuncs = map[string]bool{
	"fmt.Sprintf": true, "fmt.Errorf": true, "fmt.Sprint": true,
	"fmt.Sprintln": true, "fmt.Appendf": true,
	// Formatted printing is an I/O effect but not a purity concern the
	// droppederr/taint analyzers don't already own; panics terminate.
	"time.Duration.String": true,
}

// externalEffects classifies a body-less callee.
func externalEffects(fn *types.Func) effects {
	pkg := fn.Pkg()
	if pkg == nil {
		return 0 // error.Error, unsafe builtins: treat as pure
	}
	if pureExternalPkgs[pkg.Path()] {
		return 0
	}
	if argMutateExternalPkgs[pkg.Path()] {
		return effParamMutate
	}
	name := pkg.Path() + "." + fn.Name()
	if sig := fn.Type().(*types.Signature); sig.Recv() != nil {
		name = pkg.Path() + "." + recvTypeName(sig) + "." + fn.Name()
	}
	if pureExternalFuncs[name] {
		return 0
	}
	return effExternal
}

func recvTypeName(sig *types.Signature) string {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// localEffect records where an effect originates inside one body.
type localEffect struct {
	bit    effects
	pos    token.Position
	detail string
}

// inferLocal computes one node's own effects (no propagation).
func inferLocal(n *cgNode) (effects, []localEffect) {
	body := n.body()
	if body == nil {
		return 0, nil
	}
	info := n.pkg.Info
	fset := n.pkg.Fset
	var eff effects
	var local []localEffect
	add := func(bit effects, pos token.Pos, detail string) {
		eff |= bit
		local = append(local, localEffect{bit: bit, pos: fset.Position(pos), detail: detail})
	}

	// The variables whose mutation is argument-reachable: parameters and
	// receiver of this function and (for literals) of every enclosing
	// function — a captured outer local is the ENCLOSER's frame, which
	// the fold into the encloser accounts for.
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false // folded via the encloses edge
		case *ast.GoStmt:
			add(effGo, x.Pos(), "go statement")
		case *ast.SendStmt:
			add(effChan, x.Pos(), "channel send")
		case *ast.SelectStmt:
			add(effChan, x.Pos(), "select")
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				add(effChan, x.Pos(), "channel receive")
			}
		case *ast.RangeStmt:
			if _, ok := info.TypeOf(x.X).Underlying().(*types.Chan); ok {
				add(effChan, x.Pos(), "range over channel")
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
					add(effChan, x.Pos(), "channel close")
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				classifyWrite(info, n, lhs, add)
			}
		case *ast.IncDecStmt:
			classifyWrite(info, n, x.X, add)
		}
		return true
	})
	return eff, local
}

// classifyWrite classifies one assignment target.
func classifyWrite(info *types.Info, n *cgNode, lhs ast.Expr, add func(effects, token.Pos, string)) {
	root, indirect := writeRoot(lhs)
	if root == nil {
		if indirect {
			// Write through an anonymous pointer chain (*f() = x):
			// argument-reachable by assumption (see package doc).
			add(effParamMutate, lhs.Pos(), "write through pointer")
		}
		return
	}
	obj := info.ObjectOf(root)
	v, ok := obj.(*types.Var)
	if !ok {
		return
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		add(effGlobalWrite, lhs.Pos(), "writes "+v.Pkg().Name()+"."+v.Name())
		return
	}
	if !indirect {
		return // rebinding a local (or even a parameter) is frame-local
	}
	if isParamOf(v, n) {
		add(effParamMutate, lhs.Pos(), "mutates argument "+v.Name())
		return
	}
	// A local or captured variable written through indirection: the
	// pointee may be argument-reachable; classify as argument mutation
	// (captured outer locals are charged to the encloser by the fold).
	add(effParamMutate, lhs.Pos(), "write through "+v.Name())
}

// writeRoot walks to the root identifier of an assignment target and
// reports whether the path went through a dereference, field, or index.
func writeRoot(e ast.Expr) (*ast.Ident, bool) {
	indirect := false
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, indirect
		case *ast.SelectorExpr:
			indirect = true
			e = x.X
		case *ast.IndexExpr:
			indirect = true
			e = x.X
		case *ast.StarExpr:
			indirect = true
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil, indirect
		}
	}
}

// isParamOf reports whether v is a parameter, result, or receiver of n
// or of any function enclosing n.
func isParamOf(v *types.Var, n *cgNode) bool {
	for ; n != nil; n = n.enclosing {
		var sig *types.Signature
		switch {
		case n.fn != nil:
			sig = n.fn.Type().(*types.Signature)
		case n.lit != nil:
			sig, _ = n.pkg.Info.TypeOf(n.lit).(*types.Signature)
		}
		if sig == nil {
			continue
		}
		if recv := sig.Recv(); recv != nil && recv == v {
			return true
		}
		for i := 0; i < sig.Params().Len(); i++ {
			if sig.Params().At(i) == v {
				return true
			}
		}
		for i := 0; i < sig.Results().Len(); i++ {
			if sig.Results().At(i) == v {
				return true
			}
		}
	}
	return false
}

// computeEffects runs the effect fixed point over the call graph.
func computeEffects(g *CallGraph, taint map[*cgNode]taintState) (map[*cgNode]effects, map[*cgNode][]localEffect) {
	eff := make(map[*cgNode]effects, len(g.all))
	locals := make(map[*cgNode][]localEffect, len(g.all))
	barrier := func(n *cgNode) bool {
		a := g.ann(n)
		return a != nil && a.Impure
	}
	for _, n := range g.all {
		e, l := inferLocal(n)
		if taint[n].tainted {
			e |= effTaint
		}
		if len(n.unresolved) > 0 {
			e |= effUnresolved
			for _, pos := range n.unresolved {
				l = append(l, localEffect{bit: effUnresolved, pos: pos, detail: "unbounded dynamic call"})
			}
		}
		for _, edge := range n.edges {
			callee := edge.callee
			if callee.body() != nil || barrier(callee) {
				continue
			}
			if callee.fn != nil {
				if x := externalEffects(callee.fn); x != 0 {
					e |= x
					if x&effImpureMask != 0 {
						l = append(l, localEffect{bit: x & effImpureMask, pos: edge.pos, detail: "calls " + callee.name})
					}
				}
			}
		}
		eff[n] = e
		locals[n] = l
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.all {
			if barrier(n) {
				continue
			}
			e := eff[n]
			for _, edge := range n.edges {
				if barrier(edge.callee) {
					continue
				}
				e |= eff[edge.callee]
			}
			if e != eff[n] {
				eff[n] = e
				changed = true
			}
		}
	}
	return eff, locals
}

func runPurity(p *AllPass) {
	taint := computeTaint(p.Graph)
	eff, locals := computeEffects(p.Graph, taint)

	for _, n := range p.Graph.all {
		if n.fn == nil {
			continue
		}
		ann := p.Anns[n.fn]
		full := n.fn.FullName()
		cache, memoized := memoizedRoots[full]

		if memoized && (ann == nil || !ann.Pure) {
			p.Reportf(n.pos, "%s is memoized by the %s but not annotated //rbvet:pure — the cache's correctness depends on the proof", n.name, cache)
		}
		if ann == nil || !ann.Pure {
			continue
		}
		bad := eff[n] & effImpureMask
		if bad == 0 {
			continue
		}
		for _, en := range effectNames {
			if bad&en.bit == 0 {
				continue
			}
			p.Reportf(n.pos, "%s is annotated //rbvet:pure but %s%s", n.name, en.name, effectChain(p.Graph, n, en.bit, eff, locals))
		}
	}
}

// effectChain renders the shortest call chain from n to a function
// whose OWN body introduces the effect, plus that origin's detail.
func effectChain(g *CallGraph, n *cgNode, bit effects, eff map[*cgNode]effects, locals map[*cgNode][]localEffect) string {
	path := g.pathFrom(n, func(m *cgNode) bool {
		for _, l := range locals[m] {
			if l.bit&bit != 0 {
				return true
			}
		}
		return false
	})
	if len(path) == 0 {
		return ""
	}
	origin := path[len(path)-1]
	var details []string
	for _, l := range locals[origin] {
		if l.bit&bit != 0 {
			details = append(details, l.detail)
		}
	}
	sort.Strings(details)
	detail := ""
	if len(details) > 0 {
		detail = ": " + details[0]
	}
	if len(path) == 1 {
		return detail
	}
	return " (" + chainString(path) + detail + ")"
}
