package analysis

import (
	"strconv"
)

// Globalrand forbids math/rand outside internal/stats. All randomness in
// the planning stack must flow through stats.RNG, whose SplitMix64-keyed
// streams make sampling a pure function of (seed, stream key) — the
// property that keeps every run, and so its replay digest, bit-identical
// however runs are scheduled across goroutines. math/rand's global
// generator (and per-rand.Rand state seeded ad hoc) would reintroduce
// hidden shared state.
var Globalrand = &Analyzer{
	Name: "globalrand",
	Doc:  "forbid math/rand imports outside internal/stats (randomness flows through stats.RNG)",
	AppliesTo: func(path string) bool {
		return !pathWithin(path, ModulePath+"/internal/stats")
	},
	Run: runGlobalrand,
}

func runGlobalrand(p *Pass) {
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				p.Reportf(imp.Pos(), "import of %s outside internal/stats; derive randomness from stats.RNG streams instead", path)
			}
		}
	}
}
