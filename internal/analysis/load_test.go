package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadModulePackages checks the loader against the real module: a
// package with in-package tests type-checks with those files included,
// and a package with an external test file yields a second "_test"
// package.
func TestLoadModulePackages(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks module packages")
	}
	pkgs, err := Load("../..", []string{"./internal/placement", "./internal/planner"})
	if err != nil {
		t.Fatal(err)
	}
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	for _, want := range []string{
		"repro/internal/placement",
		"repro/internal/planner",
		"repro/internal/planner_test", // metamorphic_test.go and others are an external test package
	} {
		if byPath[want] == nil {
			t.Fatalf("missing package %s (got %v)", want, paths(pkgs))
		}
	}
	pl := byPath["repro/internal/placement"]
	if len(pl.Files) < 2 {
		t.Fatalf("placement loaded %d files, want source + test files", len(pl.Files))
	}
	if pl.Types == nil || pl.Info == nil || pl.Types.Scope().Lookup("Controller") == nil {
		t.Fatal("placement type information incomplete")
	}
	for name := range pl.Sources {
		if len(pl.Sources[name]) == 0 {
			t.Fatalf("empty source recorded for %s", name)
		}
	}
}

func paths(pkgs []*Package) []string {
	out := make([]string, len(pkgs))
	for i, p := range pkgs {
		out[i] = p.Path
	}
	return out
}

// TestRunOnCleanTree runs the full suite, with compiler escape facts for
// the noalloc gate, on the deterministic core and expects zero
// diagnostics — the tree must stay rbvet-clean. The tree is named by a
// relative directory, so the escape facts must still line up with the
// loaded files (TestLoadEscapesRelativeDir).
func TestRunOnCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks module packages")
	}
	patterns := []string{"./internal/placement", "./internal/cluster", "./internal/cloud", "./internal/vclock"}
	pkgs, err := Load("../..", patterns)
	if err != nil {
		t.Fatal(err)
	}
	escapes, err := LoadEscapes("../..", patterns)
	if err != nil {
		t.Fatal(err)
	}
	if diags := Run(pkgs, All, WithEscapes(escapes)); len(diags) != 0 {
		for _, d := range diags {
			t.Errorf("unexpected: %+v", d)
		}
	}
}

// TestParseEscapesRelativeDir: facts parsed under a relative directory
// are keyed by the absolute path of their file, the key the noalloc
// analyzer looks loaded positions up under.
func TestParseEscapesRelativeDir(t *testing.T) {
	out := "# repro/internal/x\n" +
		"internal/x/x.go:12:14: make([]int, n) escapes to heap\n" +
		"internal/x/x.go:13:2: moved to heap: v\n" +
		"internal/x/x.go:14:6: p does not escape\n"
	e := parseEscapes(filepath.Join("..", ".."), strings.NewReader(out))
	want, err := filepath.Abs(filepath.Join("..", "..", "internal", "x", "x.go"))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.heap[want]; len(got) != 2 || got[0].line != 12 || got[1].line != 13 {
		t.Fatalf("facts under %s: %+v (all keys: %v)", want, got, e.heap)
	}
	if !e.Covered("repro/internal/x") {
		t.Fatal("package not recorded as covered")
	}
}

// TestLoadEscapesRelativeDir: escape facts loaded from a relative
// directory match the files Load returns for the same tree, so the
// noalloc gate sees the allocations in them.
func TestLoadEscapesRelativeDir(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go build")
	}
	patterns := []string{"./internal/placement"}
	pkgs, err := Load("../..", patterns)
	if err != nil {
		t.Fatal(err)
	}
	escapes, err := LoadEscapes("../..", patterns)
	if err != nil {
		t.Fatal(err)
	}
	matched := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			matched += len(escapes.heap[absFile(pkg.Fset.Position(f.Pos()).Filename)])
		}
	}
	if matched == 0 {
		t.Fatalf("no escape fact matches a loaded file of %v; fact keys: %v", patterns, escapes.heap)
	}
}
