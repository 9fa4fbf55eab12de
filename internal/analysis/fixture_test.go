package analysis

// Golden-file harness: each fixture directory under testdata/src is one
// package. Lines with expected diagnostics carry
//
//	// want "regexp" ["regexp" ...]
//
// comments matched against the rendered "[analyzer] message". A fixture
// may pin its package import path (the analyzers' AppliesTo input) with
// a leading //rbvet:pkgpath comment; negative fixtures simply contain no
// want comments.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// fixtureExports lazily builds export data for the stdlib packages the
// fixtures import.
var fixtureExports = struct {
	sync.Mutex
	m map[string]string
}{}

func exportsFor(t *testing.T, imports map[string]bool) map[string]string {
	t.Helper()
	fixtureExports.Lock()
	defer fixtureExports.Unlock()
	missing := make([]string, 0, len(imports))
	for imp := range imports {
		if _, ok := fixtureExports.m[imp]; !ok {
			missing = append(missing, imp)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		wd, err := os.Getwd()
		if err != nil {
			t.Fatal(err)
		}
		m, err := exportMap(wd, missing)
		if err != nil {
			t.Fatalf("building export data for fixtures: %v", err)
		}
		if fixtureExports.m == nil {
			fixtureExports.m = make(map[string]string)
		}
		for k, v := range m {
			fixtureExports.m[k] = v
		}
	}
	out := make(map[string]string, len(fixtureExports.m))
	for k, v := range fixtureExports.m {
		out[k] = v
	}
	return out
}

// rawFixture is one parsed-but-unchecked fixture package.
type rawFixture struct {
	dir     string
	path    string // pinned via //rbvet:pkgpath, else "fixture/<rel>"
	files   []*ast.File
	sources map[string][]byte
	imports []string
}

// fixtureImporter resolves imports from already-checked fixture packages
// first — so fixture packages can import EACH OTHER and share one type
// universe — falling back to compiler export data for the rest.
type fixtureImporter struct {
	checked map[string]*types.Package
	base    types.Importer
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if p := fi.checked[path]; p != nil {
		return p, nil
	}
	return fi.base.Import(path)
}

// loadFixtureTree parses and type-checks a fixture directory TREE: the
// root directory and every subdirectory holding Go files is one package.
// Each package may pin its import path with //rbvet:pkgpath (how a
// fixture lands inside — or deliberately outside — the deterministic
// core); packages may import each other by pinned path, and are checked
// in dependency order.
func loadFixtureTree(t *testing.T, dir string) []*Package {
	t.Helper()
	var raws []*rawFixture
	fset := token.NewFileSet()
	stdlib := make(map[string]bool)

	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		var names []string
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				names = append(names, e.Name())
			}
		}
		if len(names) == 0 {
			return nil
		}
		files, sources, err := parseDir(fset, p, names)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(filepath.Dir(dir), p)
		raw := &rawFixture{dir: p, path: "fixture/" + filepath.ToSlash(rel), files: files, sources: sources}
		for _, f := range files {
			for _, imp := range f.Imports {
				if ip, err := strconv.Unquote(imp.Path.Value); err == nil {
					raw.imports = append(raw.imports, ip)
				}
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if rest, ok := strings.CutPrefix(c.Text, "//rbvet:pkgpath "); ok {
						raw.path = strings.TrimSpace(rest)
					}
				}
			}
		}
		raws = append(raws, raw)
		return nil
	})
	if err != nil {
		t.Fatalf("scanning fixture %s: %v", dir, err)
	}
	if len(raws) == 0 {
		t.Fatalf("fixture %s has no Go files", dir)
	}

	fixturePaths := make(map[string]bool, len(raws))
	for _, r := range raws {
		if fixturePaths[r.path] {
			t.Fatalf("fixture %s: duplicate package path %s", dir, r.path)
		}
		fixturePaths[r.path] = true
	}
	for _, r := range raws {
		for _, imp := range r.imports {
			if !fixturePaths[imp] {
				stdlib[imp] = true
			}
		}
	}

	// Check in dependency order: a package is ready when its
	// fixture-internal imports are all checked.
	fi := &fixtureImporter{checked: make(map[string]*types.Package)}
	fi.base = newExportImporter(fset, exportsFor(t, stdlib))
	var pkgs []*Package
	pending := append([]*rawFixture(nil), raws...)
	for len(pending) > 0 {
		progressed := false
		var next []*rawFixture
		for _, r := range pending {
			ready := true
			for _, imp := range r.imports {
				if fixturePaths[imp] && fi.checked[imp] == nil {
					ready = false
					break
				}
			}
			if !ready {
				next = append(next, r)
				continue
			}
			tpkg, info, err := checkFiles(fset, r.path, r.files, fi)
			if err != nil {
				t.Fatalf("type-checking fixture %s: %v", r.dir, err)
			}
			fi.checked[r.path] = tpkg
			pkgs = append(pkgs, &Package{
				Path: r.path, Dir: r.dir, Fset: fset,
				Files: r.files, Types: tpkg, Info: info, Sources: r.sources,
			})
			progressed = true
		}
		if !progressed {
			t.Fatalf("fixture %s: import cycle among fixture packages", dir)
		}
		pending = next
	}
	return pkgs
}

// Want patterns may be double-quoted (escaped) or backtick-quoted (raw,
// friendlier for regexps full of metacharacters).
var (
	wantRE    = regexp.MustCompile("// want ((?:(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)\\s*)+)")
	wantTokRE = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")
)

// expectations extracts want comments: file:line -> expected regexps.
func expectations(t *testing.T, pkg *Package) map[string][]*regexp.Regexp {
	t.Helper()
	wants := make(map[string][]*regexp.Regexp)
	for name, src := range pkg.Sources {
		for i, line := range strings.Split(string(src), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			key := fmt.Sprintf("%s:%d", name, i+1)
			for _, q := range wantTokRE.FindAllString(m[1], -1) {
				pat, err := strconv.Unquote(q)
				if err != nil {
					t.Fatalf("%s: bad want pattern %s: %v", key, q, err)
				}
				wants[key] = append(wants[key], regexp.MustCompile(pat))
			}
		}
	}
	return wants
}

// runFixture checks the analyzers' diagnostics on one fixture tree
// against its want comments, gathered from every package of the tree.
func runFixture(t *testing.T, analyzers []*Analyzer, dir string, opts ...RunOption) {
	t.Helper()
	pkgs := loadFixtureTree(t, dir)
	diags := Run(pkgs, analyzers, opts...)
	wants := make(map[string][]*regexp.Regexp)
	for _, pkg := range pkgs {
		for key, res := range expectations(t, pkg) {
			wants[key] = append(wants[key], res...)
		}
	}

	matched := make(map[string][]bool)
	for key, res := range wants {
		matched[key] = make([]bool, len(res))
	}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		rendered := fmt.Sprintf("[%s] %s", d.Analyzer, d.Message)
		ok := false
		for i, re := range wants[key] {
			if !matched[key][i] && re.MatchString(rendered) {
				matched[key][i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected diagnostic: %s", key, rendered)
		}
	}
	for key, res := range wants {
		for i, re := range res {
			if !matched[key][i] {
				t.Errorf("%s: no diagnostic matched %q", key, re)
			}
		}
	}
}

// fixtures lists the sub-fixtures of testdata/src/<group>.
func fixtures(t *testing.T, group string) []string {
	t.Helper()
	root := filepath.Join("testdata", "src", group)
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, filepath.Join(root, e.Name()))
		}
	}
	if len(dirs) == 0 {
		t.Fatalf("no fixtures under %s", root)
	}
	return dirs
}

func testAnalyzerFixtures(t *testing.T, analyzers []*Analyzer, group string) {
	for _, dir := range fixtures(t, group) {
		dir := dir
		t.Run(filepath.Base(dir), func(t *testing.T) { runFixture(t, analyzers, dir) })
	}
}

// TestDettaintFixtures pins interprocedural taint flow: transitive
// cross-package chains, //rbvet:impure barriers, and the source tables.
func TestDettaintFixtures(t *testing.T) {
	testAnalyzerFixtures(t, []*Analyzer{Dettaint}, "dettaint")
}

// TestCallgraphFixtures pins the resolution rules taint depends on:
// interface CHA, function values in struct fields, and recursion.
func TestCallgraphFixtures(t *testing.T) {
	testAnalyzerFixtures(t, []*Analyzer{Dettaint}, "callgraph")
}

// TestPurityFixtures pins the effect lattice: refuted claims (global
// writes, channels, goroutines), pure-modulo-arguments acceptance, and
// the memoization registry.
func TestPurityFixtures(t *testing.T) {
	testAnalyzerFixtures(t, []*Analyzer{Purity}, "purity")
}

// TestNoallocFixtures runs the REAL escape-analysis pipeline on the hot
// fixture — its pinned path is its true import path, so `go build
// -gcflags=-m` diagnostics line up with the fixture's positions.
func TestNoallocFixtures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go build")
	}
	escapes, err := LoadEscapes(".", []string{"./testdata/src/noalloc/hot"})
	if err != nil {
		t.Fatal(err)
	}
	runFixture(t, []*Analyzer{Noalloc}, filepath.Join("testdata", "src", "noalloc", "hot"), WithEscapes(escapes))
}

// TestNoallocUnverified checks the fail-loud paths: no escape data
// (rbvet -fast) and test-file hot paths are diagnostics, not silence.
func TestNoallocUnverified(t *testing.T) {
	runFixture(t, []*Analyzer{Noalloc}, filepath.Join("testdata", "src", "noalloc", "unverified"))
}

func TestMaporderFixtures(t *testing.T) { testAnalyzerFixtures(t, []*Analyzer{Maporder}, "maporder") }
func TestWallclockFixtures(t *testing.T) {
	testAnalyzerFixtures(t, []*Analyzer{Wallclock}, "wallclock")
}
func TestGlobalrandFixtures(t *testing.T) {
	testAnalyzerFixtures(t, []*Analyzer{Globalrand}, "globalrand")
}
func TestDroppederrFixtures(t *testing.T) {
	testAnalyzerFixtures(t, []*Analyzer{Droppederr}, "droppederr")
}

// TestIgnoreFixtures exercises the suppression mechanism end-to-end:
// reasons silence exactly one analyzer on exactly one line, bare ignores
// are themselves diagnostics, and unrelated analyzers keep reporting.
func TestIgnoreFixtures(t *testing.T) {
	testAnalyzerFixtures(t, []*Analyzer{Maporder, Wallclock, Globalrand, Droppederr}, "ignore")
}

// TestUnreachedFixtures pins the reachability roots and rules: mains
// under cmd/ and bench/, package-level initialisers, method values,
// methods called through standard-library interfaces and literals are
// reached; test-only and dead-only callers are not; a reasoned
// suppression holds, and one whose function is gone is stale. A load
// not declared the whole module reports nothing, stale directives
// included.
func TestUnreachedFixtures(t *testing.T) {
	analyzers := []*Analyzer{Unreached, Staleignore}
	for _, dir := range fixtures(t, "unreached") {
		t.Run(filepath.Base(dir), func(t *testing.T) { runFixture(t, analyzers, dir, WithModule(nil)) })
		t.Run(filepath.Base(dir)+"/subset", func(t *testing.T) {
			if diags := Run(loadFixtureTree(t, dir), analyzers); len(diags) != 0 {
				t.Fatalf("a load that is not the whole module reported %v", diags)
			}
		})
	}
}
