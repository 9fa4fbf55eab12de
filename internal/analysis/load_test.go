package analysis

import (
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
	pkgs, err := Load("../..", []string{"./internal/placement", "./internal/core"})
	if err != nil {
		t.Fatal(err)
	}
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	for _, want := range []string{
		"repro/internal/placement",
		"repro/internal/core",
		"repro/internal/core_test", // example_test.go is an external test package
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
// diagnostics — the tree must stay rbvet-clean.
func TestRunOnCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks module packages")
	}
	patterns := []string{"./internal/placement", "./internal/cluster"}
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
			t.Errorf("unexpected: %s", d)
		}
	}
}
