package main

import (
	"encoding/json"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

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
// subcommand fails.
func TestSubcommands(t *testing.T) {
	bin := build(t)
	out, err := exec.Command(bin, "plan", "-trials", "8", "-max-iters", "12", "-samples", "5", "-breakdown").Output()
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

	if err := exec.Command(bin, "bogus").Run(); err == nil {
		t.Error("an unknown subcommand succeeded")
	}
}
