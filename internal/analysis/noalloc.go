// Zero-alloc enforcement: a build-time gate on annotated hot paths.
//
// PR 4 pinned the hot paths with testing.AllocsPerRun, which only
// triggers when the right benchmark runs, measures a whole call tree,
// and reports "1 alloc" without saying where. Noalloc moves the pin to
// analysis time: functions annotated
//
//	//rbvet:noalloc
//
// are checked against the compiler's own escape analysis
// (go build -gcflags=<module>/...=-m): any "escapes to heap" /
// "moved to heap" decision inside the annotated function's body is a
// diagnostic at the allocation site. A deliberate cold-path allocation
// (growing a scratch buffer on first use) carries a per-line
//
//	//rbvet:ignore noalloc — <why the hot path never takes this branch>
//
// The gate is only as good as its input, so it fails loudly rather
// than vacuously: an annotated function whose package produced no
// compiler output — or that lives in a _test.go file, which `go build`
// never compiles — is reported as unverifiable.
package analysis

import (
	"bufio"
	"bytes"
	"fmt"
	"go/token"
	"io"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// Noalloc verifies //rbvet:noalloc functions against escape analysis.
var Noalloc = &Analyzer{
	Name:   "noalloc",
	Doc:    "verify //rbvet:noalloc hot paths heap-allocation-free via the compiler's escape analysis (-gcflags=-m)",
	RunAll: runNoalloc,
}

// escFact is one compiler escape decision.
type escFact struct {
	line int
	msg  string
}

// EscapeFacts holds parsed `go build -gcflags=-m` output.
type EscapeFacts struct {
	// heap maps absolute filename → heap-allocation decisions in it.
	heap map[string][]escFact
	// covered records the import paths the compiler emitted ANY output
	// for — the difference between "no allocations" and "no data".
	covered map[string]bool
}

// Covered reports whether the compiler produced output for pkgPath.
func (e *EscapeFacts) Covered(pkgPath string) bool { return e.covered[pkgPath] }

// LoadEscapes builds the given packages (go-list patterns, resolved in
// dir) with -m escape diagnostics enabled for every module package, and
// parses the result. The build cache replays compiler diagnostics, so
// warm runs are fast.
func LoadEscapes(dir string, patterns []string) (*EscapeFacts, error) {
	args := append([]string{"build", "-gcflags", ModulePath + "/...=-m", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m: %v\n%s", err, out)
	}
	return parseEscapes(dir, bytes.NewReader(out)), nil
}

// heapDecision reports whether one -m message is a heap allocation.
func heapDecision(msg string) bool {
	return strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "does not escape") ||
		strings.HasPrefix(msg, "moved to heap")
}

// parseEscapes decodes -m output: "# pkg" section headers followed by
// "file:line:col: message" lines with file paths relative to dir. Facts
// are keyed by absolute path, whether dir is relative or not, so they
// match the loaded files however either side was named.
func parseEscapes(dir string, r io.Reader) *EscapeFacts {
	e := &EscapeFacts{heap: make(map[string][]escFact), covered: make(map[string]bool)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	current := ""
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			current = strings.TrimSpace(rest)
			continue
		}
		file, ln, msg, ok := splitDiagLine(line)
		if !ok {
			continue
		}
		if current != "" {
			e.covered[current] = true
		}
		if !heapDecision(msg) {
			continue
		}
		if !filepath.IsAbs(file) {
			file = filepath.Join(dir, file)
		}
		file = absFile(file)
		e.heap[file] = append(e.heap[file], escFact{line: ln, msg: msg})
	}
	return e
}

// absFile returns the absolute form of a file name, relative names
// taken against the working directory: the one key escape facts and
// loaded positions are compared under. A name that cannot be made
// absolute is only cleaned.
func absFile(name string) string {
	if abs, err := filepath.Abs(name); err == nil {
		return abs
	}
	return filepath.Clean(name)
}

// splitDiagLine parses "file:line:col: message".
func splitDiagLine(s string) (file string, line int, msg string, ok bool) {
	i := strings.Index(s, ": ")
	if i < 0 {
		return "", 0, "", false
	}
	loc, msg := s[:i], s[i+2:]
	parts := strings.Split(loc, ":")
	if len(parts) < 2 {
		return "", 0, "", false
	}
	// file:line or file:line:col; the file part may itself contain no
	// colons (relative paths under a module).
	n := len(parts)
	if ln, err := strconv.Atoi(parts[n-2]); err == nil {
		if _, err := strconv.Atoi(parts[n-1]); err == nil {
			return strings.Join(parts[:n-2], ":"), ln, msg, true
		}
	}
	ln, err := strconv.Atoi(parts[n-1])
	if err != nil {
		return "", 0, "", false
	}
	return strings.Join(parts[:n-1], ":"), ln, msg, true
}

func runNoalloc(p *AllPass) {
	for _, n := range p.Graph.all {
		if n.fn == nil || n.doc == nil {
			continue
		}
		ann := p.Anns[n.fn]
		if ann == nil || !ann.Noalloc {
			continue
		}
		start := n.pkg.Fset.Position(n.doc.Pos())
		end := n.pkg.Fset.Position(n.doc.End())
		if strings.HasSuffix(start.Filename, "_test.go") || strings.HasSuffix(basePath(n.pkg.Path), "_test") {
			p.Reportf(start, "//rbvet:noalloc on %s cannot be verified: `go build` does not compile test files — move the hot path into the package proper", n.name)
			continue
		}
		if p.Escapes == nil {
			p.Reportf(start, "//rbvet:noalloc on %s not verified: no escape-analysis data (run rbvet without -fast)", n.name)
			continue
		}
		if !p.Escapes.Covered(basePath(n.pkg.Path)) {
			p.Reportf(start, "//rbvet:noalloc on %s not verified: escape analysis produced no output for %s", n.name, basePath(n.pkg.Path))
			continue
		}
		for _, f := range p.Escapes.heap[absFile(start.Filename)] {
			if f.line < start.Line || f.line > end.Line {
				continue
			}
			pos := token.Position{Filename: start.Filename, Line: f.line, Column: 1}
			p.Reportf(pos, "heap allocation in //rbvet:noalloc %s: %s", n.name, f.msg)
		}
	}
}
