package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from this tree")

// build compiles the command into a temporary directory.
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rubberband")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// TestSubcommands drives each subcommand once: plan's breakdown adds up
// to the RubberBand row it decomposes, sweep prints one row per step,
// run executes an explicit plan without planning, and an unknown
// subcommand or a missing job file fails.
func TestSubcommands(t *testing.T) {
	bin := build(t)
	out, err := exec.Command(bin, "plan", "-trials", "8", "-max-iters", "12", "-breakdown").Output()
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	row := regexp.MustCompile(`(?m)^RubberBand\s+\([0-9, ]+\)\s+(\S+)\s+(\S+)`).FindStringSubmatch(string(out))
	if row == nil {
		t.Fatalf("plan printed no RubberBand row:\n%s", out)
	}
	var dur, cost float64
	for _, m := range regexp.MustCompile(`(?m)^\d+\s+\d+\s+\d+\s+\d+\s+(\S+)\s+(\S+)\s*$`).FindAllStringSubmatch(string(out), -1) {
		d, _ := strconv.ParseFloat(m[1], 64)
		c, _ := strconv.ParseFloat(m[2], 64)
		dur, cost = dur+d, cost+c
	}
	jct, _ := strconv.ParseFloat(row[1], 64)
	total, _ := strconv.ParseFloat(row[2], 64)
	if d := dur - jct; d < -3 || d > 3 {
		t.Errorf("breakdown durations sum to %v s, the plan predicts %v s:\n%s", dur, jct, out)
	}
	if d := cost - total; d < -0.03 || d > 0.03 {
		t.Errorf("breakdown costs sum to $%v, the plan predicts $%v:\n%s", cost, total, out)
	}

	out, err = exec.Command(bin, "sweep", "-trials", "8", "-min-iters", "1", "-max-iters", "12", "-eta", "3",
		"-from", "5m", "-to", "20m", "-steps", "3", "-format", "csv").Output()
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if lines := strings.Split(strings.TrimSpace(string(out)), "\n"); len(lines) != 4 {
		t.Errorf("sweep printed %d lines, want a header and 3 rows:\n%s", len(lines), out)
	}

	out, err = exec.Command(bin, "run", "-trials", "8", "-max-iters", "12", "-plan", "8,4,2", "-json").Output()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var res struct {
		Plan          []int   `json:"plan"`
		PredictedCost float64 `json:"predicted_cost"`
		Cost          float64 `json:"cost"`
	}
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatalf("run -json: %v\n%s", err, out)
	}
	if len(res.Plan) != 3 || res.Plan[0] != 8 || res.PredictedCost != 0 || res.Cost <= 0 {
		t.Errorf("run -plan 8,4,2: %+v", res)
	}

	// A deadline_factor job's deadline exists only once the run
	// resolves it: the job line prints that one, not the zero the job
	// file leaves in the scenario.
	job := filepath.Join(t.TempDir(), "factor.json")
	doc := `{"model": "resnet50", "stages": [[4, 1], [2, 1], [1, 2]], "seed": 3, "max_gpus": 4, "deadline_factor": 2}`
	if err := os.WriteFile(job, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err = exec.Command(bin, "run", "-config", job).Output(); err != nil {
		t.Fatalf("run -config with a deadline_factor: %v\n%s", err, out)
	}
	if line, _, _ := strings.Cut(string(out), "\n"); !strings.HasPrefix(line, "job: ") || strings.Contains(line, "deadline 0s") {
		t.Errorf("job line %q, want the resolved deadline", line)
	}

	if err := exec.Command(bin, "bogus").Run(); err == nil {
		t.Error("an unknown subcommand succeeded")
	}
	if err := exec.Command(bin, "run", "-config", filepath.Join(t.TempDir(), "missing.json")).Run(); err == nil {
		t.Error("a missing job file ran")
	}
}

// goldenRuns are the invocations TestGolden pins: the run flags that
// reach every field of the job, the shorthand past the service limits
// (-trials 128), an explicit plan, every policy's plan with its
// breakdown, the default sweep and a job file.
var goldenRuns = [][]string{
	{"run", "-json"},
	{"run", "-json", "-model", "bert", "-policy", "static", "-trials", "16", "-min-iters", "1", "-max-iters", "30", "-eta", "3"},
	{"run", "-json", "-model", "resnet50", "-deadline", "15m", "-profile"},
	{"run", "-json", "-trials", "8", "-max-iters", "12", "-plan", "8,4,2"},
	{"run", "-json", "-trials", "128"},
	{"plan", "-breakdown"},
	{"sweep", "-format", "csv"},
	{"run", "-json", "-config", filepath.Join("testdata", "full.json")},
}

// TestGolden pins the output of each of goldenRuns against
// testdata/golden.txt, so a change to how the flags or a job file become
// a scenario cannot move a result unnoticed. -update rewrites the file.
func TestGolden(t *testing.T) {
	bin := build(t)
	var got []byte
	for _, args := range goldenRuns {
		cmd := exec.Command(bin, args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("rubberband %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
		}
		got = append(append(got, "== rubberband "+strings.Join(args, " ")+"\n"...), out...)
	}
	path := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
		for i := range max(len(wl), len(gl)) {
			var w, g string
			if i < len(wl) {
				w = wl[i]
			}
			if i < len(gl) {
				g = gl[i]
			}
			if w != g {
				t.Fatalf("output moved from testdata/golden.txt (go test ./cmd/rubberband -run TestGolden -update rewrites it), line %d:\n  want %s\n  got  %s", i+1, w, g)
			}
		}
	}
}
