// Package config loads experiment definitions from JSON, standing in for
// the cluster configuration file RubberBand's cluster manager consumes
// (§5: instance types, images and initialization scripts) extended with
// the full experiment: model, search algorithm parameters, deadline,
// policy and cloud profile.
//
// A minimal file:
//
//	{
//	  "model": "resnet101",
//	  "deadline": "20m",
//	  "sha": {"n": 32, "r": 1, "max_r": 50, "eta": 3}
//	}
//
// Everything else defaults sensibly (RubberBand policy, p3.8xlarge
// on-demand workers, the paper's provisioning overheads).
package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/cloud"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/searchspace"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
)

// File is the top-level JSON document.
type File struct {
	// Model names a zoo model: resnet50, resnet101, resnet152, bert.
	Model string `json:"model"`
	// Batch overrides the model's base batch size (0 = default).
	Batch int `json:"batch,omitempty"`
	// Deadline is a Go duration string, e.g. "20m".
	Deadline string `json:"deadline"`
	// Policy is "rubberband" (default), "static" or "naive".
	Policy string `json:"policy,omitempty"`
	// SHA gives the Successive Halving parameters.
	SHA SHASpec `json:"sha"`
	// Cloud overrides the provider profile.
	Cloud *CloudSpec `json:"cloud,omitempty"`
	// Seed, Samples, MaxGPUs set the scenario's BatchSeed, Samples and
	// MaxGPUs.
	Seed    uint64 `json:"seed,omitempty"`
	Samples int    `json:"samples,omitempty"`
	MaxGPUs int    `json:"max_gpus,omitempty"`
	// UseProfiler plans from measured scaling instead of ground truth.
	UseProfiler bool `json:"use_profiler,omitempty"`
	// RestoreSeconds is the checkpoint-restore latency per migration.
	RestoreSeconds float64 `json:"restore_seconds,omitempty"`
}

// SHASpec holds SHA(n, r, R, η).
type SHASpec struct {
	N    int `json:"n"`
	R    int `json:"r"`
	MaxR int `json:"max_r"`
	Eta  int `json:"eta"`
}

// CloudSpec overrides the provider profile.
type CloudSpec struct {
	// Instance is a catalog name, e.g. "p3.8xlarge".
	Instance string `json:"instance,omitempty"`
	// Billing is "per-instance" (default) or "per-function".
	Billing string `json:"billing,omitempty"`
	// Market is "on-demand" (default) or "spot".
	Market string `json:"market,omitempty"`
	// MinChargeSeconds is the per-instance billing minimum (default 60).
	MinChargeSeconds *float64 `json:"min_charge_seconds,omitempty"`
	// DataPricePerGB is the ingress price.
	DataPricePerGB float64 `json:"data_price_per_gb,omitempty"`
	// DatasetGB overrides the model's dataset size.
	DatasetGB *float64 `json:"dataset_gb,omitempty"`
	// QueueDelay and InitLatency are provisioning overheads.
	QueueDelay  *DistSpec `json:"queue_delay,omitempty"`
	InitLatency *DistSpec `json:"init_latency,omitempty"`
	// Faults enables provider fault injection.
	Faults *FaultSpec `json:"faults,omitempty"`
}

// FaultSpec mirrors cloud.FaultModel.
type FaultSpec struct {
	ProvisionFailureProb  float64 `json:"provision_failure_prob,omitempty"`
	PreemptionMeanSeconds float64 `json:"preemption_mean_seconds,omitempty"`
}

// DistSpec describes a latency distribution.
type DistSpec struct {
	// Type is "deterministic", "normal", "lognormal", "exponential",
	// "uniform" or "pareto".
	Type string `json:"type"`
	// Value is the deterministic constant.
	Value float64 `json:"value,omitempty"`
	// Mean and Std parameterize normal/lognormal/exponential.
	Mean float64 `json:"mean,omitempty"`
	Std  float64 `json:"std,omitempty"`
	// Lo and Hi bound the uniform distribution.
	Lo float64 `json:"lo,omitempty"`
	Hi float64 `json:"hi,omitempty"`
	// Scale and Alpha parameterize the Pareto distribution.
	Scale float64 `json:"scale,omitempty"`
	Alpha float64 `json:"alpha,omitempty"`
}

// Dist builds the stats.Dist the spec describes.
func (d DistSpec) Dist() (stats.Dist, error) {
	switch d.Type {
	case "deterministic":
		if d.Value < 0 {
			return nil, fmt.Errorf("config: negative deterministic value %v", d.Value)
		}
		return stats.Deterministic{Value: d.Value}, nil
	case "normal":
		if d.Mean < 0 || d.Std < 0 {
			return nil, fmt.Errorf("config: invalid normal(%v, %v)", d.Mean, d.Std)
		}
		return stats.Normal{Mu: d.Mean, Sigma: d.Std}, nil
	case "lognormal":
		if d.Mean <= 0 || d.Std < 0 {
			return nil, fmt.Errorf("config: invalid lognormal(%v, %v)", d.Mean, d.Std)
		}
		return stats.LogNormalFromMoments(d.Mean, d.Std), nil
	case "exponential":
		if d.Mean <= 0 {
			return nil, fmt.Errorf("config: invalid exponential mean %v", d.Mean)
		}
		return stats.Exponential{MeanValue: d.Mean}, nil
	case "uniform":
		if d.Hi < d.Lo || d.Lo < 0 {
			return nil, fmt.Errorf("config: invalid uniform[%v, %v)", d.Lo, d.Hi)
		}
		return stats.Uniform{Lo: d.Lo, Hi: d.Hi}, nil
	case "pareto":
		p, err := stats.NewPareto(d.Scale, d.Alpha)
		if err != nil {
			return nil, err
		}
		return p, nil
	default:
		return nil, fmt.Errorf("config: unknown distribution type %q", d.Type)
	}
}

// Parse decodes and validates a JSON document into a ready-to-run
// scenario (including any requested fault injection).
func Parse(data []byte) (harness.Scenario, error) {
	var f File
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return harness.Scenario{}, fmt.Errorf("config: %w", err)
	}
	return f.Build()
}

// Load reads and parses a JSON file.
func Load(path string) (harness.Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return harness.Scenario{}, err
	}
	return Parse(data)
}

// ParsePolicy maps a policy name, "rubberband" (or empty), "static" or
// "naive", to its planner policy.
func ParsePolicy(name string) (planner.Policy, error) {
	switch name {
	case "", "rubberband":
		return planner.PolicyRubberBand, nil
	case "static":
		return planner.PolicyStatic, nil
	case "naive":
		return planner.PolicyNaiveElastic, nil
	default:
		return 0, fmt.Errorf("config: unknown policy %q", name)
	}
}

// Build materializes the scenario.
func (f File) Build() (sc harness.Scenario, err error) {
	if f.Model == "" {
		return sc, fmt.Errorf("config: missing model")
	}
	m, err := model.ByName(f.Model)
	if err != nil {
		return sc, err
	}
	if f.Batch > 0 {
		m = atBatch(m, f.Batch)
	}
	if f.Deadline == "" {
		return sc, fmt.Errorf("config: missing deadline")
	}
	deadline, err := time.ParseDuration(f.Deadline)
	if err != nil {
		return sc, fmt.Errorf("config: deadline: %w", err)
	}
	if deadline <= 0 {
		return sc, fmt.Errorf("config: non-positive deadline %v", deadline)
	}
	sha, err := spec.SHA(spec.SHAParams{N: f.SHA.N, R: f.SHA.R, MaxR: f.SHA.MaxR, Eta: f.SHA.Eta})
	if err != nil {
		return sc, err
	}
	policy, err := ParsePolicy(f.Policy)
	if err != nil {
		return sc, err
	}
	space := searchspace.DefaultVisionSpace()
	if m.Name == "bert" {
		space = searchspace.DefaultNLPSpace()
	}

	sc = harness.Scenario{
		BatchSeed:      f.Seed,
		Spec:           sha,
		Model:          m,
		Space:          space,
		Profile:        sim.DefaultCloudProfile(),
		RestoreSeconds: f.RestoreSeconds,
		MaxGPUs:        f.MaxGPUs,
		Samples:        f.Samples,
		Deadline:       deadline.Seconds(),
		Policy:         policy,
		UseProfiler:    f.UseProfiler,
	}
	sc.Profile.DatasetGB = m.Dataset.SizeGB
	if f.Cloud != nil {
		if sc.Profile, err = f.Cloud.apply(sc.Profile); err != nil {
			return sc, err
		}
		if f.Cloud.Faults != nil {
			sc.Faults = cloud.FaultModel{
				ProvisionFailureProb:  f.Cloud.Faults.ProvisionFailureProb,
				PreemptionMeanSeconds: f.Cloud.Faults.PreemptionMeanSeconds,
			}
			if err := sc.Faults.Validate(); err != nil {
				return sc, err
			}
		}
	}
	return sc, nil
}

// atBatch returns a copy of m measured at the effective batch size
// batch: its reference batch becomes batch, with the single-GPU latency
// and straggler σ it has there, so the harness, which trains at the
// model's reference batch, trains at batch.
func atBatch(m *model.Model, batch int) *model.Model {
	scale := float64(batch) / float64(m.BaseBatch)
	c := *m
	c.BaseBatch = batch
	c.BaseIterSeconds *= scale
	c.IterNoiseStd *= scale
	return &c
}

// apply overlays the spec onto a base profile.
func (c CloudSpec) apply(cp sim.CloudProfile) (sim.CloudProfile, error) {
	if c.Instance != "" {
		it, err := cloud.DefaultCatalog().Lookup(c.Instance)
		if err != nil {
			return cp, err
		}
		cp.Instance = it
	}
	switch c.Billing {
	case "":
	case "per-instance":
		cp.Pricing.Billing = cloud.PerInstance
	case "per-function":
		cp.Pricing.Billing = cloud.PerFunction
	default:
		return cp, fmt.Errorf("config: unknown billing %q", c.Billing)
	}
	switch c.Market {
	case "":
	case "on-demand":
		cp.Pricing.Market = cloud.OnDemand
	case "spot":
		cp.Pricing.Market = cloud.Spot
	default:
		return cp, fmt.Errorf("config: unknown market %q", c.Market)
	}
	if c.MinChargeSeconds != nil {
		cp.Pricing.MinChargeSeconds = *c.MinChargeSeconds
	}
	cp.Pricing.DataPricePerGB = c.DataPricePerGB
	if c.DatasetGB != nil {
		cp.DatasetGB = *c.DatasetGB
	}
	if c.QueueDelay != nil {
		d, err := c.QueueDelay.Dist()
		if err != nil {
			return cp, err
		}
		cp.Overheads.QueueDelay = d
	}
	if c.InitLatency != nil {
		d, err := c.InitLatency.Dist()
		if err != nil {
			return cp, err
		}
		cp.Overheads.InitLatency = d
	}
	return cp, cp.Validate()
}
