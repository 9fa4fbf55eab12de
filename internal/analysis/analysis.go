// Package analysis is rbvet's static-analysis framework: it type-checks
// the module with the standard library's go/parser + go/types and runs
// project-specific analyzers that machine-check the determinism and
// purity invariants of the planning stack (see DESIGN.md, "Static
// analysis"). Intraprocedural analyzers inspect one package at a time;
// the interprocedural suite (dettaint, purity, noalloc, unreached) runs
// over a CHA-style call graph of every loaded package. Violations are reported
// as file:line diagnostics; deliberate exceptions are suppressed per
// line with
//
//	//rbvet:ignore <analyzer> — <reason>
//
// where the reason is mandatory (stale ignores are themselves
// diagnostics), or excused per function with //rbvet:impure(reason)
// (see funcann.go).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Analyzer is one named invariant checker. Intraprocedural analyzers set
// Run and see one package at a time; interprocedural analyzers set
// RunAll and see every loaded package at once, plus the call graph and
// the function annotations.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is a one-line description of the invariant the analyzer guards.
	Doc string
	// AppliesTo restricts the analyzer to packages whose import path
	// satisfies the predicate; nil means every package. External test
	// packages are matched with their "_test" suffix stripped.
	AppliesTo func(pkgPath string) bool
	// Run inspects one package and reports violations on the pass.
	Run func(*Pass)
	// RunAll inspects the whole loaded package set at once. Analyzers
	// with RunAll decide per report site whether a package is in scope.
	RunAll func(*AllPass)
	// WholeModule marks an analyzer whose findings hold only when the
	// loaded packages are the whole module (see WithModule); on any other
	// load the analyzer and the staleness of its ignore directives are
	// skipped.
	WholeModule bool
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Path     string // import path of the package under analysis
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// AllPass carries an interprocedural analyzer's view of the whole
// loaded package set.
type AllPass struct {
	Analyzer *Analyzer
	Pkgs     []*Package
	Graph    *CallGraph
	Anns     map[*types.Func]*FuncAnn
	// Escapes holds compiler escape-analysis facts for the noalloc
	// analyzer; nil when the escape pass was skipped (rbvet -fast).
	Escapes *EscapeFacts
	// Roots holds the root-only packages of WithModule.
	Roots []*Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic at an already-resolved position.
func (p *AllPass) Reportf(pos token.Position, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All is the rbvet analyzer suite. Fast is the subset that needs no
// compiler escape-analysis pass (rbvet -fast / make lint-fast).
var (
	All  = []*Analyzer{Maporder, Wallclock, Globalrand, Droppederr, Dettaint, Purity, Noalloc, Unreached, Staleignore}
	Fast = []*Analyzer{Maporder, Wallclock, Globalrand, Droppederr, Dettaint, Purity, Unreached, Staleignore}
)

// byName resolves analyzer names for directive validation.
func byName(analyzers []*Analyzer) map[string]bool {
	m := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		m[a.Name] = true
	}
	return m
}

// ModulePath is the import-path prefix of the module under analysis.
const ModulePath = "repro"

// DeterministicCore lists the packages whose outputs must be pure
// functions of their inputs: the Monte-Carlo simulator, the planners, the
// placement controller, the executor and replanning controller, the
// chaos harness and journal (whose replay digests ARE the recovery and
// determinism oracles), and everything they depend on for plan-affecting
// state. A wall-clock, environment, or ad-hoc-RNG read here silently
// breaks run-to-run reproducibility of estimates, plans, and digests.
var DeterministicCore = []string{
	ModulePath + "/internal/sim",
	ModulePath + "/internal/planner",
	ModulePath + "/internal/placement",
	ModulePath + "/internal/stats",
	ModulePath + "/internal/executor",
	ModulePath + "/internal/replan",
	ModulePath + "/internal/harness",
	ModulePath + "/internal/journal",
	ModulePath + "/internal/vclock",
	// The serve control plane sits ON the determinism boundary: its HTTP
	// surface lives in wall time, but everything below the grant gate
	// must stay taint-clean — the only sanctioned wall-clock read is the
	// annotated ops-timestamp helper in wall.go. Keeping the package in
	// the core makes any new wall-clock or environment read a lint
	// failure instead of a silent replay break.
	ModulePath + "/internal/serve",
}

// basePath strips the external-test suffix so AppliesTo predicates see
// the package under test's path.
func basePath(path string) string { return strings.TrimSuffix(path, "_test") }

// pathWithin reports whether path is pkg or a subpackage of pkg.
func pathWithin(path, pkg string) bool {
	return path == pkg || strings.HasPrefix(path, pkg+"/")
}

// inDeterministicCore reports whether the package is part of the
// deterministic core.
func inDeterministicCore(path string) bool {
	for _, core := range DeterministicCore {
		if pathWithin(basePath(path), core) {
			return true
		}
	}
	return false
}

// RunOption configures one Run invocation.
type RunOption func(*runConfig)

type runConfig struct {
	escapes *EscapeFacts
	module  bool
	roots   []*Package
}

// WithEscapes supplies compiler escape-analysis facts to the noalloc
// analyzer (see LoadEscapes). Without them, noalloc reports annotated
// functions as unverifiable.
func WithEscapes(e *EscapeFacts) RunOption {
	return func(c *runConfig) { c.escapes = e }
}

// WithModule declares that the packages are the whole module, which
// enables the WholeModule analyzers, and supplies roots: packages whose
// binaries are roots of the unreached analyzer but which no analyzer
// reports on (see LoadRoots).
func WithModule(roots []*Package) RunOption {
	return func(c *runConfig) { c.module, c.roots = true, roots }
}

// Run executes the analyzers over the packages, applies ignore
// directives, and returns the surviving diagnostics plus directive
// problems — including stale-ignore reports for directives that
// suppressed nothing — sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer, opts ...RunOption) []Diagnostic {
	var cfg runConfig
	for _, o := range opts {
		o(&cfg)
	}
	// Every analyzer name is directive-addressable, whether or not it is
	// in this run's set; staleness is only judged for analyzers that ran.
	known := byName(All)
	for _, a := range analyzers {
		known[a.Name] = true
	}
	analyzers = slices.DeleteFunc(slices.Clone(analyzers), func(a *Analyzer) bool {
		return a.WholeModule && !cfg.module
	})
	ran := byName(analyzers)

	var diags []Diagnostic
	var suppressions []directive
	anns := make(map[*types.Func]*FuncAnn)
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			if a.AppliesTo != nil && !a.AppliesTo(basePath(pkg.Path)) {
				continue
			}
			pass := &Pass{
				Analyzer: a, Path: pkg.Path, Fset: pkg.Fset,
				Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info,
				diags: &diags,
			}
			a.Run(pass)
		}
		dirs, problems := parseDirectives(pkg, known)
		suppressions = append(suppressions, dirs...)
		diags = append(diags, problems...)
		pkgAnns, problems := parseFuncAnns(pkg)
		for fn, ann := range pkgAnns {
			anns[fn] = ann
		}
		diags = append(diags, problems...)
	}

	if hasGraphAnalyzer(analyzers) {
		graph := buildCallGraph(pkgs, anns, false)
		for _, a := range analyzers {
			if a.RunAll == nil {
				continue
			}
			a.RunAll(&AllPass{
				Analyzer: a, Pkgs: pkgs, Graph: graph, Anns: anns,
				Escapes: cfg.escapes, Roots: cfg.roots, diags: &diags,
			})
		}
	}

	var stale []Diagnostic
	diags, stale = applySuppressionsChecked(diags, suppressions, ran)
	diags = append(diags, stale...)
	diags = dedupe(diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// hasGraphAnalyzer reports whether any analyzer needs the call graph.
func hasGraphAnalyzer(analyzers []*Analyzer) bool {
	for _, a := range analyzers {
		if a.RunAll != nil {
			return true
		}
	}
	return false
}

// dedupe removes repeated diagnostics: nested map-range loops can flag
// one operation from both the inner and outer loop's perspective.
func dedupe(diags []Diagnostic) []Diagnostic {
	seen := make(map[Diagnostic]bool, len(diags))
	kept := diags[:0]
	for _, d := range diags {
		if !seen[d] {
			seen[d] = true
			kept = append(kept, d)
		}
	}
	return kept
}
