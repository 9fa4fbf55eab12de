// Command rbvet runs the project's static-analysis suite: it
// type-checks every package of the module and enforces the determinism
// and purity invariants of the planning stack (see DESIGN.md, "Static
// analysis").
//
// Usage:
//
//	rbvet [-list] [-fast] [-json file] [packages]
//
// Packages default to ./... and use go-list patterns. Diagnostics print
// as "file:line:col: [analyzer] message"; the exit status is nonzero
// when any diagnostic survives suppression.
//
// -fast skips the compiler escape-analysis pass (`go build
// -gcflags=-m`), and with it the noalloc analyzer — the rest of the
// suite needs only type-checking. -json writes the full diagnostic list
// as a JSON array to the named file ("-" for stdout) in addition to the
// human-readable output, for CI artifacts and tooling.
//
// Deliberate exceptions are annotated in source: per line with
//
//	//rbvet:ignore <analyzer> — <reason>
//
// on (or directly above) the offending line, and per function with
// //rbvet:impure(reason) in the declaration's doc comment. The
// staleignore analyzer reports directives that no longer suppress
// anything.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analysis"
)

// jsonDiag is the serialized form of one diagnostic, a stable contract
// for CI artifacts: positions are repo-relative.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "list the registered analyzers and exit")
	fast := flag.Bool("fast", false, "skip the escape-analysis build pass (and the noalloc analyzer)")
	jsonOut := flag.String("json", "", "also write diagnostics as JSON to `file` (\"-\" for stdout)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: rbvet [-list] [-fast] [-json file] [packages]")
		flag.PrintDefaults()
	}
	flag.Parse()

	suite := analysis.All
	if *fast {
		suite = analysis.Fast
	}
	if *list {
		for _, a := range suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	pkgs, err := analysis.Load(dir, patterns)
	if err != nil {
		fatal(err)
	}
	var opts []analysis.RunOption
	// ./... from the module root is the whole module; bench's binary is a
	// root too.
	if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil && len(patterns) == 1 && patterns[0] == "./..." {
		roots, err := analysis.LoadRoots(dir)
		if err != nil {
			fatal(err)
		}
		opts = append(opts, analysis.WithModule(roots))
	}
	if !*fast {
		escapes, err := analysis.LoadEscapes(dir, patterns)
		if err != nil {
			fatal(err)
		}
		opts = append(opts, analysis.WithEscapes(escapes))
	}
	diags := analysis.Run(pkgs, suite, opts...)

	jdiags := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		pos := d.Pos
		if rel, err := filepath.Rel(dir, pos.Filename); err == nil {
			pos.Filename = rel
		}
		fmt.Printf("%s:%d:%d: [%s] %s\n", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message)
		jdiags = append(jdiags, jsonDiag{
			File: pos.Filename, Line: pos.Line, Column: pos.Column,
			Analyzer: d.Analyzer, Message: d.Message,
		})
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, jdiags); err != nil {
			fatal(err)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "rbvet: %d invariant violation(s)\n", len(diags))
		os.Exit(1)
	}
}

func writeJSON(path string, diags []jsonDiag) error {
	enc, err := json.MarshalIndent(diags, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(path, enc, 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rbvet:", err)
	os.Exit(2)
}
