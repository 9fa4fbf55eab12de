package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite results/experiments_full.{txt,csv} from this tree")

// timing matches the wall-clock bracket on each experiment's header.
var timing = regexp.MustCompile(` \[[0-9.]+s\]`)

// goldenPath locates a file under the repository's results/ directory.
func goldenPath(name string) string { return filepath.Join("..", "..", "results", name) }

// render runs the command with args and returns its output with the
// header timings stripped.
func render(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", "."}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("experiments %v: %v\n%s", args, err, stderr.Bytes())
	}
	return timing.ReplaceAll(out, nil)
}

// TestPaperTablesGolden pins every paper table and figure: the full
// `experiments -run all` output, in both formats, must match the
// committed results/experiments_full.{txt,csv} up to the header
// timings. A change that moves a table regenerates them with -update
// and says why.
func TestPaperTablesGolden(t *testing.T) {
	for _, c := range []struct{ file, format string }{
		{"experiments_full.txt", "text"},
		{"experiments_full.csv", "csv"},
	} {
		got := render(t, "-run", "all", "-format", c.format)
		path := goldenPath(c.file)
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(timing.ReplaceAll(want, nil), got) {
			t.Errorf("%s is stale: the experiments' output moved (go test ./cmd/experiments -run TestPaperTablesGolden -update regenerates it)\n%s",
				c.file, firstDiff(timing.ReplaceAll(want, nil), got))
		}
	}
}

// firstDiff renders the first differing line of two outputs.
func firstDiff(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if !bytes.Equal(w, g) {
			return fmt.Sprintf("line %d:\n  want %s\n  got  %s", i+1, w, g)
		}
	}
	return ""
}

// cellGap separates the cells of a rendered table row.
var cellGap = regexp.MustCompile(`\s{2,}`)

// TestExperimentsTablesMatchOutput holds EXPERIMENTS.md to the program:
// every numeric row of every table there must equal, cell for cell, a
// row of the generated `-run all` output, which TestPaperTablesGolden
// pins to results/experiments_full.txt. EXPERIMENTS.md separates cells
// with "|", the output with runs of two or more spaces.
func TestExperimentsTablesMatchOutput(t *testing.T) {
	out, err := os.ReadFile(goldenPath("experiments_full.txt"))
	if err != nil {
		t.Fatal(err)
	}
	generated := make(map[string]bool)
	for _, line := range strings.Split(string(timing.ReplaceAll(out, nil)), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			generated[strings.Join(cellGap.Split(line, -1), "|")] = true
		}
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	rows, inTable, pastHeader := 0, false, false
	for i, line := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(line, "|") {
			inTable, pastHeader = false, false
			continue
		}
		if !inTable {
			inTable = true // the header row
			continue
		}
		if !pastHeader {
			pastHeader = true // the |---| separator
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for j := range cells {
			cells[j] = strings.TrimSpace(cells[j])
		}
		for len(cells) > 0 && cells[len(cells)-1] == "" {
			cells = cells[:len(cells)-1]
		}
		if !strings.ContainsAny(line, "0123456789") {
			continue
		}
		rows++
		if !generated[strings.Join(cells, "|")] {
			t.Errorf("EXPERIMENTS.md:%d: no row of the generated output matches %q", i+1, line)
		}
	}
	if rows == 0 {
		t.Fatal("found no numeric table rows in EXPERIMENTS.md")
	}
}
