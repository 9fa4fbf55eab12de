package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// patternFlag matches a -run, -bench or -fuzz flag and its value, quoted
// or bare, with or without "=".
var patternFlag = regexp.MustCompile(`-(run|bench|fuzz)[= ](?:'([^']*)'|"([^"]*)"|(\S+))`)

// testFunc matches the declaration of a test, benchmark or fuzz target.
var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)

// TestRunPatternsMatchTests guards the scripted test selections: go test
// passes silently when a -run alternative names a test that no longer
// exists. Every alternative of every -run, -bench and -fuzz pattern in
// the Makefile, the repro script and CI must match a test, benchmark or
// fuzz target of the right kind somewhere in the tree.
func TestRunPatternsMatchTests(t *testing.T) {
	names := map[string][]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, "_test.go") {
			if d != nil && d.IsDir() && d.Name() == ".git" {
				return filepath.SkipDir
			}
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			for _, kind := range []string{"Test", "Benchmark", "Fuzz"} {
				if strings.HasPrefix(m[1], kind) {
					names[kind] = append(names[kind], m[1])
				}
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string][]string{
		"run":   append(append([]string(nil), names["Test"]...), names["Fuzz"]...),
		"bench": names["Benchmark"],
		"fuzz":  names["Fuzz"],
	}
	checked := 0
	for _, file := range []string{"Makefile", "tools/repro/run.sh", ".github/workflows/ci.yml"} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if !strings.Contains(line, "go test") {
				continue
			}
			for _, m := range patternFlag.FindAllStringSubmatch(strings.ReplaceAll(line, "$$", "$"), -1) {
				pattern := m[2] + m[3] + m[4]
				for _, alt := range alternatives(pattern) {
					checked++
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Fatalf("%s:%d: -%s %q: %v", file, i+1, m[1], pattern, err)
					}
					if !matchesAny(re, kinds[m[1]]) {
						t.Errorf("%s:%d: -%s %q: alternative %q matches no function", file, i+1, m[1], pattern, alt)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no test selections to check")
	}
}

// alternatives splits a selection pattern into one regexp per
// alternative, keeping the pattern's anchors: "^(A|B)$" gives "^A$" and
// "^B$". The run-nothing idiom "^$" has none.
func alternatives(pattern string) []string {
	head, body, tail := "", pattern, ""
	if strings.HasPrefix(body, "^") {
		head, body = "^", body[1:]
	}
	if strings.HasSuffix(body, "$") {
		body, tail = body[:len(body)-1], "$"
	}
	if body == "" {
		return nil
	}
	if strings.HasPrefix(body, "(") && strings.HasSuffix(body, ")") {
		body = body[1 : len(body)-1]
	}
	var out []string
	for _, alt := range strings.Split(body, "|") {
		out = append(out, head+alt+tail)
	}
	return out
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
