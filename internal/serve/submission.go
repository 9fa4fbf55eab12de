package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/cloud"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/searchspace"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
)

// Submission is the experiment schema: the JSON body of POST
// /v1/experiments and, without a tenant, the job file `rubberband
// -config` reads. It is a complete, self-contained experiment
// description. BuildScenario maps it to a harness scenario as a pure
// function, so the submission plus the recorded grant sequence is the
// experiment's full replay tuple. A field tagged omitempty may be left
// out; an absent one keeps the service's default.
type Submission struct {
	// Tenant is the submitting tenant (journal.ValidName alphabet).
	Tenant string `json:"tenant"`
	// Name optionally labels the experiment for humans.
	Name string `json:"name,omitempty"`
	// Model names a zoo workload: resnet50, resnet101, resnet152, bert.
	Model string `json:"model"`
	// Stages is the successive-halving structure: [trials, iters] pairs
	// with non-increasing trial counts.
	Stages [][2]int `json:"stages"`
	// Seed drives every random stream of the experiment.
	Seed uint64 `json:"seed"`
	// MaxGPUs caps the experiment's peak cluster request; zero selects
	// planner.DefaultMaxGPUs (the service requires 1 or more).
	MaxGPUs int `json:"max_gpus"`
	// DeadlineFactor scales the analytic static-cluster JCT at MaxGPUs
	// into the job deadline (values near 1 are tight). Exactly one of
	// DeadlineFactor and Deadline is set.
	DeadlineFactor float64 `json:"deadline_factor,omitempty"`
	// Samples is range-checked (0-64) and otherwise ignored: every plan
	// is estimated analytically, and a Simulator draws no samples.
	//
	// Deprecated: submissions need not set it.
	Samples int `json:"samples,omitempty"`
	// Estimator is validated ("segment", "analytic" or empty) and
	// otherwise ignored: every plan is estimated analytically.
	//
	// Deprecated: submissions need not set it.
	Estimator string `json:"estimator,omitempty"`
	// Instance names the cloud catalog worker type (default p3.2xlarge).
	Instance string `json:"instance,omitempty"`
	// Deadline is the job deadline as a Go duration string, e.g. "20m".
	Deadline string `json:"deadline,omitempty"`
	// Policy is "rubberband" (the default when empty), "static" or
	// "naive".
	Policy string `json:"policy,omitempty"`
	// Batch overrides the model's base batch size (0 = default).
	Batch int `json:"batch,omitempty"`
	// UseProfiler plans from a measured scaling profile instead of the
	// model's ground truth.
	UseProfiler bool `json:"use_profiler,omitempty"`
	// RestoreSeconds is the checkpoint-restore latency per migration
	// (default 2, at most cloud.MaxSeconds).
	RestoreSeconds *float64 `json:"restore_seconds,omitempty"`
	// Cloud overrides the provider's pricing, overheads and faults.
	Cloud *CloudSpec `json:"cloud,omitempty"`
}

// CloudSpec overrides the cloud profile. The defaults are on-demand,
// per-instance billing with no minimum charge and no data price, zero
// queue delay, a 5 s init and no faults. Every duration it sets must lie
// in [0, cloud.MaxSeconds].
type CloudSpec struct {
	// Billing is "per-instance" (default) or "per-function".
	Billing string `json:"billing,omitempty"`
	// Market is "on-demand" (default) or "spot".
	Market string `json:"market,omitempty"`
	// MinChargeSeconds is the per-instance billing minimum.
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
	// Scale and Alpha parameterize the Pareto distribution; Alpha must
	// exceed 2, so its variance is finite.
	Scale float64 `json:"scale,omitempty"`
	Alpha float64 `json:"alpha,omitempty"`
}

// DecodeSubmission reads one submission from r strictly: an unknown
// field, or anything but white space after the object, is an error, so
// a misspelt field cannot silently fall back to its default.
func DecodeSubmission(r io.Reader) (Submission, error) {
	var sub Submission
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sub); err != nil {
		return Submission{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return Submission{}, errors.New("trailing data after the submission")
	}
	return sub, nil
}

// submission limits: bounds on accepted experiment shapes so one tenant
// cannot submit an experiment that monopolizes the service.
const (
	maxStages        = 8
	maxTrials        = 64
	maxIters         = 50
	maxSamples       = 64
	maxDeadlineScale = 100.0
	// maxGPUs bounds max_gpus where no tenant quota applies (replay
	// verification and recovery): plan search is linear in it.
	maxGPUs = 4096
)

// Validate checks the service's limits on a submission, then that it
// builds into a scenario. The tenant name shares the journal's
// directory-name alphabet so any valid submission can be journaled per
// tenant.
func (s *Submission) Validate() error {
	if !journal.ValidName(s.Tenant) {
		return fmt.Errorf("invalid tenant %q: want 1-64 chars of [a-z0-9-]", s.Tenant)
	}
	if len(s.Stages) == 0 || len(s.Stages) > maxStages {
		return fmt.Errorf("%d stages, want 1-%d", len(s.Stages), maxStages)
	}
	prev := maxTrials
	for i, st := range s.Stages {
		trials, iters := st[0], st[1]
		if trials < 1 || trials > prev {
			return fmt.Errorf("stage %d: %d trials, want 1-%d non-increasing", i, trials, prev)
		}
		if iters < 1 || iters > maxIters {
			return fmt.Errorf("stage %d: %d iters, want 1-%d", i, iters, maxIters)
		}
		prev = trials
	}
	if s.MaxGPUs < 1 || s.MaxGPUs > maxGPUs {
		return fmt.Errorf("max_gpus %d, want 1-%d", s.MaxGPUs, maxGPUs)
	}
	if s.Deadline == "" && !(s.DeadlineFactor > 0 && s.DeadlineFactor <= maxDeadlineScale) {
		return fmt.Errorf("deadline_factor %v, want (0, %v]", s.DeadlineFactor, maxDeadlineScale)
	}
	if s.Samples < 0 || s.Samples > maxSamples {
		return fmt.Errorf("samples %d, want 0-%d", s.Samples, maxSamples)
	}
	_, err := BuildScenario(*s)
	return err
}

// zooModel resolves a zoo workload by name, building only that model.
func zooModel(name string) (*model.Model, error) {
	m, err := model.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("unknown model %q", name)
	}
	return m, nil
}

// BuildScenario maps a submission to its harness scenario as a pure
// function, checking what a scenario needs to be well formed; Validate
// adds the service's limits. restore_seconds and cloud decode into the
// scenario's one cloud.Profile, which Profile.Validate checks whole
// (every duration in [0, cloud.MaxSeconds]; an error names the field).
// The default cloud is p3.2xlarge workers on on-demand per-instance
// billing with no minimum charge, zero queue delay, a 5 s init, a 2 s
// restore and no faults, so a served experiment spends the service's
// nondeterminism budget entirely on the arbiter's grants.
func BuildScenario(sub Submission) (harness.Scenario, error) {
	m, err := zooModel(sub.Model)
	if err != nil {
		return harness.Scenario{}, err
	}
	if min(sub.Batch, sub.Samples, sub.MaxGPUs) < 0 {
		return harness.Scenario{}, fmt.Errorf("batch %d, samples %d, max_gpus %d: want 0 or more", sub.Batch, sub.Samples, sub.MaxGPUs)
	}
	if sub.Batch > 0 {
		m = atBatch(m, sub.Batch)
	}
	stages := make([]spec.Stage, len(sub.Stages))
	for i, st := range sub.Stages {
		stages[i] = spec.Stage{Trials: st[0], Iters: st[1]}
	}
	sp, err := spec.New(stages...)
	if err != nil {
		return harness.Scenario{}, err
	}
	sc := harness.Scenario{
		BatchSeed:      sub.Seed,
		Spec:           sp,
		Model:          m,
		Space:          searchspace.ForModel(m.Name),
		MaxGPUs:        sub.MaxGPUs,
		DeadlineFactor: sub.DeadlineFactor,
		UseProfiler:    sub.UseProfiler,
	}
	switch {
	case sub.Deadline != "" && sub.DeadlineFactor != 0:
		return sc, errors.New("both deadline and deadline_factor set, want one")
	case sub.Deadline != "":
		d, err := time.ParseDuration(sub.Deadline)
		if err != nil {
			return sc, fmt.Errorf("deadline: %w", err)
		}
		if d <= 0 {
			return sc, fmt.Errorf("non-positive deadline %v", d)
		}
		sc.Deadline = d.Seconds()
	case !(sub.DeadlineFactor > 0):
		return sc, fmt.Errorf("deadline_factor %v, want a positive factor or a deadline", sub.DeadlineFactor)
	}
	if sc.Policy, err = planner.ParsePolicy(sub.Policy); err != nil {
		return sc, err
	}
	if sub.Estimator != "" {
		if _, err = sim.ParseEstimator(sub.Estimator); err != nil {
			return sc, err
		}
	}
	instance := sub.Instance
	if instance == "" {
		instance = "p3.2xlarge"
	}
	it, err := cloud.DefaultCatalog().Lookup(instance)
	if err != nil {
		return sc, fmt.Errorf("instance %q: %w", sub.Instance, err)
	}
	sc.Profile = cloud.Profile{
		Instance: it,
		Pricing:  cloud.Pricing{Billing: cloud.PerInstance, Market: cloud.OnDemand},
		Overheads: cloud.Overheads{
			QueueDelay:  stats.Deterministic{Value: 0},
			InitLatency: stats.Deterministic{Value: 5},
		},
		DatasetGB:      m.Dataset.SizeGB,
		RestoreSeconds: 2,
	}
	if r := sub.RestoreSeconds; r != nil {
		sc.Profile.RestoreSeconds = *r
	}
	if c := sub.Cloud; c != nil {
		if err := c.apply(&sc.Profile); err != nil {
			return sc, err
		}
	}
	return sc, sc.Profile.Validate()
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

// apply overlays the spec onto the profile cp. Profile.Validate checks
// the values; apply refuses only what it cannot decode.
func (c *CloudSpec) apply(cp *cloud.Profile) error {
	switch c.Billing {
	case "", "per-instance":
	case "per-function":
		cp.Pricing.Billing = cloud.PerFunction
	default:
		return fmt.Errorf("unknown billing %q", c.Billing)
	}
	switch c.Market {
	case "", "on-demand":
	case "spot":
		cp.Pricing.Market = cloud.Spot
	default:
		return fmt.Errorf("unknown market %q", c.Market)
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
			return fmt.Errorf("queue_delay: %w", err)
		}
		cp.Overheads.QueueDelay = d
	}
	if c.InitLatency != nil {
		d, err := c.InitLatency.Dist()
		if err != nil {
			return fmt.Errorf("init_latency: %w", err)
		}
		cp.Overheads.InitLatency = d
	}
	if c.Faults != nil {
		cp.Faults = cloud.FaultModel(*c.Faults)
	}
	return nil
}

// Dist builds the stats.Dist the spec describes.
func (d DistSpec) Dist() (stats.Dist, error) {
	switch d.Type {
	case "deterministic":
		if d.Value < 0 {
			return nil, fmt.Errorf("negative deterministic value %v", d.Value)
		}
		return stats.Deterministic{Value: d.Value}, nil
	case "normal":
		if d.Mean < 0 || d.Std < 0 {
			return nil, fmt.Errorf("invalid normal(%v, %v)", d.Mean, d.Std)
		}
		return stats.Normal{Mu: d.Mean, Sigma: d.Std}, nil
	case "lognormal":
		if d.Mean <= 0 || d.Std < 0 {
			return nil, fmt.Errorf("invalid lognormal(%v, %v)", d.Mean, d.Std)
		}
		return stats.LogNormalFromMoments(d.Mean, d.Std), nil
	case "exponential":
		if d.Mean <= 0 {
			return nil, fmt.Errorf("invalid exponential mean %v", d.Mean)
		}
		return stats.Exponential{MeanValue: d.Mean}, nil
	case "uniform":
		if d.Hi < d.Lo || d.Lo < 0 {
			return nil, fmt.Errorf("invalid uniform[%v, %v)", d.Lo, d.Hi)
		}
		return stats.Uniform{Lo: d.Lo, Hi: d.Hi}, nil
	case "pareto":
		// The planner's analytic estimate needs a finite variance.
		if !(d.Alpha > 2) {
			return nil, fmt.Errorf("pareto alpha %v, want more than 2 (a finite variance)", d.Alpha)
		}
		p, err := stats.NewPareto(d.Scale, d.Alpha)
		if err != nil {
			return nil, err
		}
		return p, nil
	default:
		return nil, fmt.Errorf("unknown distribution type %q", d.Type)
	}
}
