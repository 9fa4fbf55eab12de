package config

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/stats"
)

const minimal = `{
  "model": "resnet101",
  "deadline": "20m",
  "sha": {"n": 32, "r": 1, "max_r": 50, "eta": 3}
}`

func TestParseMinimal(t *testing.T) {
	e, err := Parse([]byte(minimal))
	if err != nil {
		t.Fatal(err)
	}
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
}

func TestParseFull(t *testing.T) {
	doc := `{
	  "model": "bert",
	  "batch": 64,
	  "deadline": "10m",
	  "policy": "static",
	  "sha": {"n": 16, "r": 1, "max_r": 20, "eta": 2},
	  "seed": 9,
	  "samples": 7,
	  "max_gpus": 64,
	  "use_profiler": true,
	  "restore_seconds": 2.5,
	  "cloud": {
	    "instance": "p3.16xlarge",
	    "billing": "per-function",
	    "market": "spot",
	    "min_charge_seconds": 0,
	    "data_price_per_gb": 0.01,
	    "dataset_gb": 42,
	    "queue_delay": {"type": "exponential", "mean": 8},
	    "init_latency": {"type": "normal", "mean": 15, "std": 3},
	    "faults": {"provision_failure_prob": 0.1, "preemption_mean_seconds": 900}
	  }
	}`
	e, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
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
	if !e.UseProfiler || e.RestoreSeconds != 2.5 || e.BatchSeed != 9 || e.Samples != 7 || e.MaxGPUs != 64 {
		t.Errorf("options = %+v", e)
	}
}

func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"missing model":    `{"deadline": "1m", "sha": {"n":2,"r":1,"max_r":2,"eta":2}}`,
		"unknown model":    `{"model": "vgg", "deadline": "1m", "sha": {"n":2,"r":1,"max_r":2,"eta":2}}`,
		"missing deadline": `{"model": "bert", "sha": {"n":2,"r":1,"max_r":2,"eta":2}}`,
		"bad deadline":     `{"model": "bert", "deadline": "soon", "sha": {"n":2,"r":1,"max_r":2,"eta":2}}`,
		"zero deadline":    `{"model": "bert", "deadline": "0s", "sha": {"n":2,"r":1,"max_r":2,"eta":2}}`,
		"bad sha":          `{"model": "bert", "deadline": "1m", "sha": {"n":0,"r":1,"max_r":2,"eta":2}}`,
		"bad policy":       `{"model": "bert", "deadline": "1m", "policy": "magic", "sha": {"n":2,"r":1,"max_r":2,"eta":2}}`,
		"unknown field":    `{"model": "bert", "deadline": "1m", "sha": {"n":2,"r":1,"max_r":2,"eta":2}, "wat": 1}`,
		"bad instance":     `{"model": "bert", "deadline": "1m", "sha": {"n":2,"r":1,"max_r":2,"eta":2}, "cloud": {"instance": "zz"}}`,
		"bad billing":      `{"model": "bert", "deadline": "1m", "sha": {"n":2,"r":1,"max_r":2,"eta":2}, "cloud": {"billing": "weird"}}`,
		"bad market":       `{"model": "bert", "deadline": "1m", "sha": {"n":2,"r":1,"max_r":2,"eta":2}, "cloud": {"market": "gray"}}`,
		"bad dist":         `{"model": "bert", "deadline": "1m", "sha": {"n":2,"r":1,"max_r":2,"eta":2}, "cloud": {"queue_delay": {"type": "zeta"}}}`,
		"bad faults":       `{"model": "bert", "deadline": "1m", "sha": {"n":2,"r":1,"max_r":2,"eta":2}, "cloud": {"faults": {"provision_failure_prob": 2}}}`,
		"not json":         `{`,
	}
	for name, doc := range cases {
		if _, err := Parse([]byte(doc)); err == nil {
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
		{Type: "mystery"},
	}
	for _, d := range bad {
		if _, err := d.Dist(); err == nil {
			t.Errorf("accepted %+v", d)
		}
	}
}

func TestLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "exp.json")
	if err := os.WriteFile(path, []byte(minimal), 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if e.Model.Name != "resnet101" {
		t.Errorf("model = %s", e.Model.Name)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file loaded")
	}
}
