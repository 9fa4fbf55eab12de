package repro

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var updateExamples = flag.Bool("update", false, "rewrite results/examples_output.txt from this tree")

// examples lists the example programs in the order the Makefile's
// examples target runs them.
var examples = []string{
	"quickstart",
	"cifar_resnet101",
	"bert_finetune",
	"hyperband",
	"straggler_study",
	"spot_market",
	"grid_search",
}

// examplesTarget matches the Makefile's examples target and its recipe.
var examplesTarget = regexp.MustCompile(`(?m)^examples:\n((?:\t.*\n)+)`)

// TestExamplesOutputGolden pins every example's output: `make examples`
// run from this tree, the `go run` header lines included, must match the
// committed results/examples_output.txt. A change that moves an example
// regenerates the file with -update and says why.
func TestExamplesOutputGolden(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	m := examplesTarget.FindSubmatch(mk)
	if m == nil {
		t.Fatal("Makefile has no examples target")
	}
	var lines []string
	for _, name := range examples {
		lines = append(lines, "go run ./examples/"+name)
	}
	recipe := strings.Split(strings.TrimSpace(strings.ReplaceAll(string(m[1]), "\t", "")), "\n")
	if !slices.Equal(recipe, lines) {
		t.Fatalf("the Makefile's examples target runs\n%s\nthis test runs\n%s",
			strings.Join(recipe, "\n"), strings.Join(lines, "\n"))
	}

	var got bytes.Buffer
	for i, name := range examples {
		got.WriteString(lines[i] + "\n")
		cmd := exec.Command("go", "run", "./examples/"+name)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s: %v\n%s", lines[i], err, stderr.Bytes())
		}
		got.Write(out)
	}
	const path = "results/examples_output.txt"
	if *updateExamples {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got.Bytes()) {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(got.String(), "\n")
		for i := 0; i < len(wl) || i < len(gl); i++ {
			var w, g string
			if i < len(wl) {
				w = wl[i]
			}
			if i < len(gl) {
				g = gl[i]
			}
			if w != g {
				t.Fatalf("%s is stale at line %d (go test . -run TestExamplesOutputGolden -update regenerates it):\n  want %s\n  got  %s",
					path, i+1, w, g)
			}
		}
	}
}
