// Determinism taint: interprocedural propagation of impurity sources
// through the call graph.
//
// The per-line wallclock/globalrand analyzers catch a time.Now written
// INSIDE the deterministic core, but a refactor that moves the read
// into a helper three calls away — or into another package — escapes
// them. Dettaint closes that hole: wall-clock reads, global/ad-hoc RNG,
// and environment reads are taint SOURCES wherever they live; a
// function that (transitively) calls one is TAINTED; and every call to
// a tainted function from inside the deterministic core is a
// diagnostic, carrying the full call chain down to the source.
//
// Escapes are per-function, not per-line: annotating a function
//
//	//rbvet:impure(reason)
//
// declares it impure by design — its body is excused and its taint does
// not propagate to callers. The reason is the reviewed argument for why
// the impurity cannot reach plan-affecting state (e.g. par.ForEach
// fans work across goroutines, but results are index-addressed and
// bit-identical at any worker count).
package analysis

import (
	"go/types"
)

// Dettaint is the interprocedural determinism-taint analyzer.
var Dettaint = &Analyzer{
	Name:   "dettaint",
	Doc:    "flag calls in the deterministic core that transitively reach wall-clock, RNG, or environment reads",
	RunAll: runDettaint,
}

// taintSourceFuncs maps "pkgpath.Func" of known nondeterminism sources
// to the reason shown in diagnostics. Functions of math/rand and
// math/rand/v2 (including their methods) are sources wholesale.
var taintSourceFuncs = map[string]string{
	"time.Now":       "wall clock",
	"time.Since":     "wall clock",
	"time.Until":     "wall clock",
	"time.Sleep":     "real sleep",
	"time.After":     "wall-clock timer",
	"time.Tick":      "wall-clock timer",
	"time.NewTimer":  "wall-clock timer",
	"time.NewTicker": "wall-clock timer",

	"os.Getenv":    "environment read",
	"os.LookupEnv": "environment read",
	"os.Environ":   "environment read",
	"os.Hostname":  "host identity",
	"os.Getpid":    "process identity",
	"os.Getwd":     "environment read",

	"runtime.GOMAXPROCS":   "scheduler state",
	"runtime.NumCPU":       "machine topology",
	"runtime.NumGoroutine": "scheduler state",

	"crypto/rand.Read": "hardware entropy",
}

// wallclockOwned is the subset of sources the per-line wallclock
// analyzer already reports when called directly from the core; dettaint
// skips direct calls to them to avoid double diagnostics.
var wallclockOwned = map[string]bool{
	"time.Now": true, "time.Since": true, "time.Sleep": true,
}

// sourceReason reports whether fn is a taint source, and why.
func sourceReason(fn *types.Func) (string, bool) {
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	switch fn.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		return "global/ad-hoc RNG (use stats.RNG streams)", true
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return "", false
	}
	r, ok := taintSourceFuncs[fn.Pkg().Path()+"."+fn.Name()]
	return r, ok
}

// taintState is the per-node result of the fixed point.
type taintState struct {
	tainted bool
	// source is the reason string of one reachable source, for messages.
	source string
}

// computeTaint runs the taint fixed point over the call graph. A node
// is tainted when it is a source or calls a tainted node; nodes
// annotated //rbvet:impure are barriers — excused themselves, and
// contributing nothing to callers.
func computeTaint(g *CallGraph) map[*cgNode]taintState {
	state := make(map[*cgNode]taintState)
	barrier := func(n *cgNode) bool {
		a := g.ann(n)
		return a != nil && a.Impure
	}
	// Seed: external source nodes referenced anywhere in the graph.
	for _, n := range g.decls {
		if r, ok := sourceReason(n.fn); ok {
			state[n] = taintState{tainted: true, source: r}
		}
	}
	// Fixed point: effects are monotone, so iterate to quiescence. The
	// graph is small (one module) and chains are shallow; a simple
	// round-robin converges in a handful of passes.
	for changed := true; changed; {
		changed = false
		for _, n := range g.all {
			if state[n].tainted || barrier(n) {
				continue
			}
			for _, e := range n.edges {
				if cs := state[e.callee]; cs.tainted && !barrier(e.callee) {
					state[n] = taintState{tainted: true, source: cs.source}
					changed = true
					break
				}
			}
		}
	}
	return state
}

// isSourceNode reports whether n is itself an external taint source.
func isSourceNode(n *cgNode) bool {
	if n.fn == nil || n.body() != nil {
		return false
	}
	_, ok := sourceReason(n.fn)
	return ok
}

func runDettaint(p *AllPass) {
	taint := computeTaint(p.Graph)
	for _, n := range p.Graph.all {
		if n.pkg == nil || !inDeterministicCore(basePath(n.pkg.Path)) {
			continue
		}
		if a := p.Graph.ann(n); a != nil && a.Impure {
			continue // the whole function is an excused exception
		}
		for _, e := range n.edges {
			if e.kind == edgeEncloses {
				continue // the literal's own call sites report themselves
			}
			cs := taint[e.callee]
			if !cs.tainted {
				continue
			}
			if a := p.Graph.ann(e.callee); a != nil && a.Impure {
				continue
			}
			if isSourceNode(e.callee) {
				// Direct source call. Leave time.Now/Since/Sleep to the
				// per-line wallclock analyzer.
				full := e.callee.fn.Pkg().Path() + "." + e.callee.fn.Name()
				if wallclockOwned[full] {
					continue
				}
				p.Reportf(e.pos, "call to %s is a determinism taint source (%s) in the deterministic core; route through vclock/stats.RNG or annotate the caller //rbvet:impure(reason)",
					e.callee.name, cs.source)
				continue
			}
			path := p.Graph.pathFrom(e.callee, isSourceNode)
			chain := e.callee.name
			if len(path) > 0 {
				chain = chainString(path)
			}
			p.Reportf(e.pos, "call to %s reaches a determinism taint source (%s): %s; fix the callee or annotate it //rbvet:impure(reason)",
				e.callee.name, cs.source, chain)
		}
	}
}
