package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/stats"
)

// buildDoc decodes a job document strictly and builds its scenario.
func buildDoc(doc string) (harness.Scenario, error) {
	sub, err := DecodeSubmission(strings.NewReader(doc))
	if err != nil {
		return harness.Scenario{}, err
	}
	return BuildScenario(sub)
}

// TestDecodeSubmission decodes and builds a minimal job document, which
// keeps every default, and one that sets every field.
func TestDecodeSubmission(t *testing.T) {
	cases := []struct {
		name, doc string
		check     func(t *testing.T, e harness.Scenario)
	}{
		{"minimal", `{
		  "model": "resnet101",
		  "deadline": "20m",
		  "stages": [[32, 1], [10, 3], [3, 9], [1, 37]]
		}`, func(t *testing.T, e harness.Scenario) {
			if e.Model.Name != "resnet101" {
				t.Errorf("model = %s", e.Model.Name)
			}
			if e.Deadline != (20 * time.Minute).Seconds() {
				t.Errorf("deadline = %v", e.Deadline)
			}
			if e.Policy != planner.PolicyRubberBand {
				t.Errorf("policy = %v", e.Policy)
			}
			if e.Spec.TotalTrials() != 32 || e.Spec.MaxIters() != 50 {
				t.Errorf("spec = %v", e.Spec)
			}
			if e.Faults != (cloud.FaultModel{}) {
				t.Errorf("unexpected faults %+v", e.Faults)
			}
			// The built scenario actually plans.
			if _, err := harness.PlanScenario(e); err != nil {
				t.Fatal(err)
			}
		}},
		{"full", `{
		  "model": "bert",
		  "stages": [[16, 1], [8, 2], [4, 4], [2, 8], [1, 5]],
		  "seed": 9,
		  "max_gpus": 64,
		  "samples": 7,
		  "instance": "p3.16xlarge",
		  "deadline": "10m",
		  "policy": "static",
		  "batch": 64,
		  "use_profiler": true,
		  "restore_seconds": 2.5,
		  "cloud": {
		    "billing": "per-function",
		    "market": "spot",
		    "min_charge_seconds": 0,
		    "data_price_per_gb": 0.01,
		    "dataset_gb": 42,
		    "queue_delay": {"type": "exponential", "mean": 8},
		    "init_latency": {"type": "normal", "mean": 15, "std": 3},
		    "faults": {"provision_failure_prob": 0.1, "preemption_mean_seconds": 900}
		  }
		}`, func(t *testing.T, e harness.Scenario) {
			if e.Model.Name != "bert" || e.Model.BaseBatch != 64 || e.Policy != planner.PolicyStatic {
				t.Errorf("scenario = %+v", e)
			}
			// Batch 64 retargets the model, not its latencies at that batch.
			if got, want := e.Model.IterLatencyMean(64, 4, 1), model.BERT().IterLatencyMean(64, 4, 1); math.Abs(got-want) > 1e-9*want {
				t.Errorf("latency at batch 64: %v, want %v", got, want)
			}
			if e.Profile.Instance.Name != "p3.16xlarge" {
				t.Errorf("instance = %s", e.Profile.Instance.Name)
			}
			if e.Profile.Pricing.Billing != cloud.PerFunction || e.Profile.Pricing.Market != cloud.Spot {
				t.Errorf("pricing = %+v", e.Profile.Pricing)
			}
			if e.Profile.Pricing.MinChargeSeconds != 0 || e.Profile.Pricing.DataPricePerGB != 0.01 {
				t.Errorf("pricing = %+v", e.Profile.Pricing)
			}
			if e.Profile.DatasetGB != 42 {
				t.Errorf("dataset = %v", e.Profile.DatasetGB)
			}
			if e.Faults.ProvisionFailureProb != 0.1 || e.Faults.PreemptionMeanSeconds != 900 {
				t.Errorf("faults = %+v", e.Faults)
			}
			if !e.UseProfiler || e.RestoreSeconds != 2.5 || e.BatchSeed != 9 || e.MaxGPUs != 64 {
				t.Errorf("options = %+v", e)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, err := buildDoc(c.doc)
			if err != nil {
				t.Fatal(err)
			}
			c.check(t, e)
		})
	}
}

// TestDecodeSubmissionRejects: every malformed job document fails to
// decode or to build.
func TestDecodeSubmissionRejects(t *testing.T) {
	const ok = `"model": "bert", "deadline": "1m", "stages": [[2,1],[1,1]]`
	cases := map[string]string{
		"missing model":    `{"deadline": "1m", "stages": [[2,1],[1,1]]}`,
		"unknown model":    `{"model": "vgg", "deadline": "1m", "stages": [[2,1],[1,1]]}`,
		"missing deadline": `{"model": "bert", "stages": [[2,1],[1,1]]}`,
		"bad deadline":     `{"model": "bert", "deadline": "soon", "stages": [[2,1],[1,1]]}`,
		"zero deadline":    `{"model": "bert", "deadline": "0s", "stages": [[2,1],[1,1]]}`,
		"both deadlines":   `{` + ok + `, "deadline_factor": 2}`,
		"bad stages":       `{"model": "bert", "deadline": "1m", "stages": [[0,1]]}`,
		"growing stages":   `{"model": "bert", "deadline": "1m", "stages": [[1,1],[2,1]]}`,
		"no stages":        `{"model": "bert", "deadline": "1m"}`,
		"sha block":        `{"model": "bert", "deadline": "1m", "sha": {"n":2,"r":1,"max_r":2,"eta":2}}`,
		"bad policy":       `{` + ok + `, "policy": "magic"}`,
		"unknown field":    `{` + ok + `, "wat": 1}`,
		"misspelt field":   `{` + ok + `, "estimater": "analytic"}`,
		"bad estimator":    `{` + ok + `, "estimator": "full"}`,
		"bad instance":     `{` + ok + `, "instance": "zz"}`,
		"negative batch":   `{` + ok + `, "batch": -1}`,
		"negative restore": `{` + ok + `, "restore_seconds": -1}`,
		"bad billing":      `{` + ok + `, "cloud": {"billing": "weird"}}`,
		"bad market":       `{` + ok + `, "cloud": {"market": "gray"}}`,
		"bad min charge":   `{` + ok + `, "cloud": {"min_charge_seconds": -1}}`,
		"bad dist":         `{` + ok + `, "cloud": {"queue_delay": {"type": "zeta"}}}`,
		"bad faults":       `{` + ok + `, "cloud": {"faults": {"provision_failure_prob": 2}}}`,
		"not json":         `{`,
		"trailing data":    `{` + ok + `} {}`,
	}
	for name, doc := range cases {
		if _, err := buildDoc(doc); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDistSpecs(t *testing.T) {
	r := stats.NewRNG(1)
	cases := []struct {
		spec DistSpec
		mean float64
		tol  float64
	}{
		{DistSpec{Type: "deterministic", Value: 5}, 5, 0},
		{DistSpec{Type: "normal", Mean: 10, Std: 1}, 10, 0.2},
		{DistSpec{Type: "lognormal", Mean: 8, Std: 2}, 8, 0.4},
		{DistSpec{Type: "exponential", Mean: 3}, 3, 0.2},
		{DistSpec{Type: "uniform", Lo: 2, Hi: 4}, 3, 0.1},
		{DistSpec{Type: "pareto", Scale: 1, Alpha: 3}, 1.5, 0.1},
	}
	for _, c := range cases {
		d, err := c.spec.Dist()
		if err != nil {
			t.Fatalf("%+v: %v", c.spec, err)
		}
		var sum float64
		const n = 20000
		for i := 0; i < n; i++ {
			v := d.Sample(r)
			if v < 0 {
				t.Fatalf("%s sampled negative %v", c.spec.Type, v)
			}
			sum += v
		}
		if got := sum / n; got < c.mean-c.tol || got > c.mean+c.tol {
			t.Errorf("%s sample mean %v, want ~%v", c.spec.Type, got, c.mean)
		}
	}
}

func TestDistSpecRejects(t *testing.T) {
	bad := []DistSpec{
		{Type: "deterministic", Value: -1},
		{Type: "normal", Mean: -1},
		{Type: "lognormal", Mean: 0},
		{Type: "exponential", Mean: 0},
		{Type: "uniform", Lo: 4, Hi: 2},
		{Type: "pareto", Scale: 0, Alpha: 2},
		{Type: "pareto", Scale: 1, Alpha: 1},
		{Type: "pareto", Scale: 1, Alpha: 1.5}, // finite mean, infinite variance
		{Type: "pareto", Scale: 1, Alpha: 2},
		{Type: "mystery"},
	}
	for _, d := range bad {
		if _, err := d.Dist(); err == nil {
			t.Errorf("accepted %+v", d)
		}
	}
}

// fuzzBodies reads the FuzzSubmission seed corpus: each file's one
// []byte value, by file name.
func fuzzBodies(t *testing.T) map[string][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzSubmission")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(files))
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a one-value fuzz corpus file", f.Name())
		}
		lit, ok := strings.CutPrefix(lines[1], "[]byte(")
		if lit, ok = strings.CutSuffix(lit, ")"); !ok {
			t.Fatalf("%s: not a []byte value", f.Name())
		}
		body, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		out[f.Name()] = []byte(body)
	}
	return out
}

// TestCorpusBodiesReencode: every seed body, the benchmark's three
// submission shapes among them, decodes, validates and re-encodes to
// the same bytes, so the merged schema leaves the bodies, sidecars and
// replay tuples of today's submissions as they are.
func TestCorpusBodiesReencode(t *testing.T) {
	bodies := fuzzBodies(t)
	for _, name := range []string{"serve-fleet", "serve-edge", "batch-replan", "full-schema"} {
		body, ok := bodies[name]
		if !ok {
			t.Fatalf("seed corpus has no %s body", name)
		}
		sub, err := DecodeSubmission(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := sub.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		enc, err := json.Marshal(sub)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, body) {
			t.Errorf("%s re-encodes differently:\n  body %s\n  got  %s", name, body, enc)
		}
	}
}
