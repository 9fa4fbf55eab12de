// Loader: type-checks the module's packages from source using only the
// standard library. Dependency type information comes from compiler export
// data located via `go list -export`, so the loader needs no
// golang.org/x/tools dependency — the module stays dependency-free.
package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("repro/internal/sim"); external test
	// packages carry their own "_test"-suffixed path.
	Path string
	// Dir is the directory holding the package's source files.
	Dir string
	// Fset positions all Files.
	Fset *token.FileSet
	// Files are the parsed source files (including in-package _test.go
	// files for module packages).
	Files []*ast.File
	// Types and Info hold the type-checking results.
	Types *types.Package
	Info  *types.Info
	// Sources maps file names to raw content, used to classify ignore
	// directives as standalone or trailing.
	Sources map[string][]byte
}

// listEntry is the subset of `go list -json` output the loader consumes.
type listEntry struct {
	Dir          string
	ImportPath   string
	Export       string
	Standard     bool
	DepOnly      bool
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	TestImports  []string
	XTestImports []string
}

// goList runs `go list` in dir with the given arguments and decodes the
// JSON stream.
func goList(dir string, args ...string) ([]*listEntry, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, errb.String())
	}
	var entries []*listEntry
	dec := json.NewDecoder(&out)
	for {
		e := new(listEntry)
		if err := dec.Decode(e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// exportMap locates compiler export data for the given import-path
// patterns and their dependency closure.
func exportMap(dir string, patterns []string) (map[string]string, error) {
	entries, err := goList(dir, append([]string{"-deps", "-export", "--"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	m := make(map[string]string, len(entries))
	for _, e := range entries {
		if e.Export != "" {
			m[e.ImportPath] = e.Export
		}
	}
	return m, nil
}

// testVariants locates export data for the test binaries of the given
// packages. A test binary recompiles the package under test with its
// in-package _test.go files, and every dependency that imports it, as
// "path [pkg.test]"; those entries land in variants[pkg][path], so an
// external test package can be checked against what the in-package test
// files add (the export_test.go idiom).
func testVariants(dir string, pkgs []string) (map[string]map[string]string, error) {
	variants := make(map[string]map[string]string)
	if len(pkgs) == 0 {
		return variants, nil
	}
	entries, err := goList(dir, append([]string{"-deps", "-export", "-test", "--"}, pkgs...)...)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		path, variant, ok := strings.Cut(e.ImportPath, " [")
		if !ok || e.Export == "" {
			continue
		}
		pkg := strings.TrimSuffix(variant, ".test]")
		if variants[pkg] == nil {
			variants[pkg] = make(map[string]string)
		}
		variants[pkg][path] = e.Export
	}
	return variants, nil
}

// withVariant returns exports with pkg's test variants in place of the
// plain packages they recompile.
func withVariant(exports map[string]string, variant map[string]string) map[string]string {
	if len(variant) == 0 {
		return exports
	}
	m := make(map[string]string, len(exports))
	for path, file := range exports {
		m[path] = file
	}
	for path, file := range variant {
		m[path] = file
	}
	return m
}

// exportImporter resolves every import from compiler export data. Using
// export data uniformly — even for intra-module imports of packages that
// are themselves being source-checked — keeps each package's type
// universe consistent; mixing source-checked and export-loaded versions
// of one package would make identical types compare unequal.
type exportImporter struct {
	fset    *token.FileSet
	exports map[string]string // import path -> export data file
	base    types.Importer
}

func newExportImporter(fset *token.FileSet, exports map[string]string) *exportImporter {
	ei := &exportImporter{fset: fset, exports: exports}
	ei.base = importer.ForCompiler(fset, "gc", ei.lookup)
	return ei
}

func (ei *exportImporter) lookup(path string) (io.ReadCloser, error) {
	file, ok := ei.exports[path]
	if !ok {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(file)
}

func (ei *exportImporter) Import(path string) (*types.Package, error) {
	return ei.base.Import(path)
}

// parseDir parses the named files of one directory, returning the ASTs
// and raw sources.
func parseDir(fset *token.FileSet, dir string, names []string) ([]*ast.File, map[string][]byte, error) {
	var files []*ast.File
	sources := make(map[string][]byte, len(names))
	for _, name := range names {
		path := filepath.Join(dir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		f, err := parser.ParseFile(fset, path, src, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
		sources[path] = src
	}
	return files, sources, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// checkFiles type-checks one package's files.
func checkFiles(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := newInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return pkg, info, nil
}

// Load parses and type-checks every package matching patterns (plus their
// in-package and external test files) in the module rooted at dir. The
// returned packages are sorted by import path, external test packages
// listed under "<path>_test".
func Load(dir string, patterns []string) ([]*Package, error) {
	targets, err := goList(dir, append([]string{"--"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	// The export closure must cover the targets' own imports and the
	// extra imports of their test files.
	patternSet := append([]string(nil), patterns...)
	seen := make(map[string]bool)
	for _, t := range targets {
		for _, imp := range append(append([]string(nil), t.TestImports...), t.XTestImports...) {
			if imp != "C" && !seen[imp] {
				seen[imp] = true
				patternSet = append(patternSet, imp)
			}
		}
	}
	exports, err := exportMap(dir, patternSet)
	if err != nil {
		return nil, err
	}
	var xtested []string
	for _, t := range targets {
		if len(t.XTestGoFiles) > 0 {
			xtested = append(xtested, t.ImportPath)
		}
	}
	variants, err := testVariants(dir, xtested)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	ei := newExportImporter(fset, exports)

	// Export data covers intra-module imports, so targets can be
	// source-checked in any order; path order keeps results stable.
	ordered := append([]*listEntry(nil), targets...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ImportPath < ordered[j].ImportPath })

	var pkgs []*Package
	for _, t := range ordered {
		if t.Standard || t.DepOnly {
			continue
		}
		names := append(append([]string(nil), t.GoFiles...), t.TestGoFiles...)
		if len(names) > 0 {
			files, sources, err := parseDir(fset, t.Dir, names)
			if err != nil {
				return nil, err
			}
			tpkg, info, err := checkFiles(fset, t.ImportPath, files, ei)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, &Package{
				Path: t.ImportPath, Dir: t.Dir, Fset: fset,
				Files: files, Types: tpkg, Info: info, Sources: sources,
			})
		}
		if len(t.XTestGoFiles) > 0 {
			files, sources, err := parseDir(fset, t.Dir, t.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			// The external test package sees the package under test as
			// its test binary compiles it, in-package test files
			// included, through a type universe of its own.
			xi := newExportImporter(fset, withVariant(exports, variants[t.ImportPath]))
			xpath := t.ImportPath + "_test"
			tpkg, info, err := checkFiles(fset, xpath, files, xi)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, &Package{
				Path: xpath, Dir: t.Dir, Fset: fset,
				Files: files, Types: tpkg, Info: info, Sources: sources,
			})
		}
	}
	return pkgs, nil
}
