// Package harness is the deterministic end-to-end chaos harness: a seeded
// scenario generator that samples random-but-reproducible experiment
// specs, scaling workloads, pricing tables, deadlines and fault models,
// runs the full pipeline (spec → simulation → planner → placement →
// elastic executor) on the virtual clock, and checks system-wide
// invariant oracles over the resulting trace, billing and result.
//
// The style follows FoundationDB-like simulation testing: all randomness
// derives from one seed through pure stats.RNG streams, so any failing
// scenario replays bit-identically from `go run ./cmd/rbfuzz -seed N
// -index I`, at any batch worker count.
package harness

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/searchspace"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
)

// Scenario is one generated end-to-end chaos experiment. It is a pure
// function of (BatchSeed, Index): Generate reconstructs it exactly, and
// RunScenario derives every runtime random stream from the same pair, so
// a Scenario value is fully described by those two numbers.
type Scenario struct {
	// BatchSeed and Index identify the scenario within its batch.
	BatchSeed uint64
	Index     int

	// Spec is the sampled experiment structure (stages × trials × iters).
	Spec *spec.ExperimentSpec
	// Model is the workload (zoo architecture with rescaled noise).
	Model *model.Model
	// Space is the hyperparameter space configurations are drawn from.
	Space *searchspace.Space
	// Profile is the cloud the job runs on: instance type, pricing,
	// provisioning overheads, dataset, faults and restore latency. The
	// provider, the executor and the Simulators all read this one value.
	Profile cloud.Profile
	// DisablePlacement scatters workers (the locality ablation path).
	DisablePlacement bool
	// MaxGPUs caps the planner's peak cluster size; zero selects
	// planner.DefaultMaxGPUs.
	MaxGPUs int
	// Samples is ignored: a Simulator draws no random numbers.
	//
	// Deprecated: kept only while the benchmark still names it.
	Samples int
	// DeadlineFactor scales the analytic static-cluster JCT bound into
	// the job deadline when Deadline is zero. Factors near or below 1 are
	// often infeasible, deliberately exercising the planner-failure
	// fallback path.
	DeadlineFactor float64
	// Deadline, when positive, is the job deadline in seconds, and
	// DeadlineFactor is ignored.
	Deadline float64
	// Policy selects the planner's search; the zero value is RubberBand's
	// elastic planner.
	Policy planner.Policy
	// UseProfiler plans from a scaling profile the instrumentation step
	// measures (§5) instead of the model's analytic ground truth.
	// Profiling is neither billed nor taken from the deadline; its
	// simulated time is reported in Artifacts.ProfilingDuration.
	UseProfiler bool
	// Plan, when non-empty, is executed as given and the planner does not
	// run: the run counts as unplanned.
	Plan sim.Plan
	// Estimator is ignored: every Simulator estimates analytically.
	//
	// Deprecated: kept only while the benchmark still names it.
	Estimator sim.EstimatorMode
	// Drift injects a mid-run latency regime change the planner did not
	// see: every iteration starting after the drift onset runs Factor×
	// slower (or faster) than profiled.
	Drift DriftModel
	// ReplanEnabled wires the online replanning controller into the
	// executor; disabled runs exercise the stale-plan baseline.
	ReplanEnabled bool
	// DriftThreshold is the replan controller's EWMA trigger threshold.
	DriftThreshold float64
	// ReplanCooldown is the minimum virtual time between replans.
	ReplanCooldown float64
	// ArbiterCaps, when non-nil, runs the scenario behind a scripted
	// stage-boundary arbiter: stage i's allocation is capped at
	// ArbiterCaps[i] GPUs, exercising the multi-tenant grant gate inside
	// the chaos sweep. Caps are part of the scenario (a pure function of
	// seed and index), so capped runs replay like any other. Capped
	// scenarios never enable replanning: the gate and the replan
	// controller both rewrite the live plan.
	ArbiterCaps []int
}

// DriftModel describes an injected latency regime change: from virtual
// time deadline×StartFraction onward, iteration latencies are multiplied
// by Factor. The zero value (or Factor 1) means no drift.
type DriftModel struct {
	Factor        float64
	StartFraction float64
}

// Active reports whether the model changes anything.
func (d DriftModel) Active() bool { return d.Factor > 0 && d.Factor != 1 }

// Stream indices for the per-scenario RNG tree. Generate and RunScenario
// never share a stream, so adding draws to one phase cannot shift another.
//
// The blank slots once seeded the planning and replanning Simulators,
// which draw no random numbers any more. They keep their places so
// every later stream keeps its index, and every digest its value.
const (
	streamGenerate = iota
	_
	streamProvider
	streamExecutor
	streamConfigs
	_
	streamCrash
	streamProfiler
)

// scenarioRoot returns the root RNG of scenario (seed, index). Stream is
// pure, so repeated calls yield identical children.
func scenarioRoot(seed uint64, index int) *stats.RNG {
	r := new(stats.RNG)
	scenarioRootInto(seed, index, r)
	return r
}

// scenarioRootInto writes scenario (seed, index)'s root RNG into dst.
func scenarioRootInto(seed uint64, index int, dst *stats.RNG) {
	stats.NewRNG(seed).StreamInto(uint64(index), dst)
}

// pick returns a uniformly chosen element of xs.
func pick[T any](r *stats.RNG, xs ...T) T { return xs[r.Intn(len(xs))] }

// uniform returns a uniform draw from [lo, hi).
func uniform(r *stats.RNG, lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Generate deterministically samples scenario index of the batch seeded by
// seed. Every field is drawn from the scenario's private generation
// stream; the same (seed, index) always yields the same Scenario.
func Generate(seed uint64, index int) Scenario {
	r := scenarioRoot(seed, index).Stream(streamGenerate)

	// Experiment structure: 1–4 stages, 2–10 initial trials, trial counts
	// non-increasing (early stopping only terminates trials).
	nStages := 1 + r.Intn(4)
	stages := make([]spec.Stage, 0, nStages)
	trials := 2 + r.Intn(9)
	for i := 0; i < nStages; i++ {
		if i > 0 {
			trials = 1 + r.Intn(trials)
		}
		stages = append(stages, spec.Stage{Trials: trials, Iters: 1 + r.Intn(5)})
	}
	s, err := spec.New(stages...)
	if err != nil {
		// Unreachable by construction: counts are positive and
		// non-increasing.
		panic(fmt.Sprintf("harness: generated invalid spec: %v", err))
	}

	// Workload: a zoo model with its latency noise kept, halved or
	// silenced, so both noisy and analytically tight runs occur.
	m := pick(r, model.Zoo()...)
	m.IterNoiseStd *= pick(r, 0.0, 0.5, 1.0)

	// Cloud substrate: worker shape, billing model, market, minimum
	// charge, data pricing and provisioning overheads.
	instName := pick(r, "p3.2xlarge", "p3.8xlarge", "p3.16xlarge")
	it, err := cloud.DefaultCatalog().Lookup(instName)
	if err != nil {
		panic(fmt.Sprintf("harness: catalog lookup: %v", err))
	}
	pricing := cloud.Pricing{
		Billing:          pick(r, cloud.PerInstance, cloud.PerInstance, cloud.PerFunction),
		Market:           pick(r, cloud.OnDemand, cloud.Spot),
		MinChargeSeconds: pick(r, 0.0, 60.0),
		DataPricePerGB:   pick(r, 0.0, 0.02),
	}
	var queue stats.Dist = stats.Deterministic{Value: 0}
	if qm := uniform(r, 0, 20); qm > 1 {
		queue = stats.Exponential{MeanValue: qm}
	}
	profile := cloud.Profile{
		Instance: it,
		Pricing:  pricing,
		Overheads: cloud.Overheads{
			QueueDelay:  queue,
			InitLatency: stats.Deterministic{Value: uniform(r, 0, 30)},
		},
		DatasetGB: uniform(r, 0, 40),
	}

	// Fault model: roughly half the scenarios run clean; the rest inject
	// provisioning failures, preemptions, or both. The preemption mean is
	// kept well above typical iteration latencies so recovery always makes
	// expected forward progress (the runner's event bound catches
	// livelock regardless).
	faults := &profile.Faults
	switch r.Intn(4) {
	case 1:
		faults.ProvisionFailureProb = uniform(r, 0.05, 0.4)
	case 2:
		faults.PreemptionMeanSeconds = uniform(r, 300, 5000)
	case 3:
		faults.ProvisionFailureProb = uniform(r, 0.05, 0.4)
		faults.PreemptionMeanSeconds = uniform(r, 300, 5000)
	}

	maxGPUs := s.TotalTrials() * pick(r, 1, 2, 4)
	if maxGPUs > 32 {
		maxGPUs = 32
	}
	// The restore must be drawn here, after maxGPUs and before the
	// placement ablation: moving the draw shifts every later field.
	profile.RestoreSeconds = uniform(r, 0, 10)

	sc := Scenario{
		BatchSeed:        seed,
		Index:            index,
		Spec:             s,
		Model:            m,
		Space:            searchspace.ForModel(m.Name),
		Profile:          profile,
		DisablePlacement: r.Intn(5) == 0,
		MaxGPUs:          maxGPUs,
		DeadlineFactor:   uniform(r, 0.8, 2.5),
	}
	// This draw selects nothing any more. It is still consumed so every
	// later field keeps its value for a given (seed, index).
	r.Intn(2)

	// Drift and replanning draws come last, after every pre-existing
	// field, for the same corpus-stability reason. A third of scenarios
	// slow down mid-run, a third speed up, a third stay on-profile; half
	// run with the replan controller wired in.
	switch r.Intn(3) {
	case 1:
		sc.Drift = DriftModel{Factor: pick(r, 1.5, 2.0, 3.0), StartFraction: uniform(r, 0.05, 0.6)}
	case 2:
		sc.Drift = DriftModel{Factor: pick(r, 0.4, 0.7), StartFraction: uniform(r, 0.05, 0.6)}
	}
	sc.ReplanEnabled = r.Intn(2) == 0
	sc.DriftThreshold = pick(r, 0.15, 0.25, 0.4)
	sc.ReplanCooldown = uniform(r, 5, 120)

	// Appended after every pre-existing draw (same corpus-stability rule):
	// this draw once re-rolled a third of scenarios onto the analytic
	// estimator, which is now the only one. It is still drawn so that
	// every later draw keeps its value.
	r.Intn(3)

	// Appended after every pre-existing draw (same corpus-stability rule):
	// a fifth of scenarios run behind a scripted stage-boundary arbiter
	// cap, so the chaos sweep covers multi-tenant grant gating — squeezed
	// allocations, queued trial waves, grant journaling — under every
	// fault model. Gating excludes the replan controller by design.
	if r.Intn(5) == 0 {
		caps := make([]int, s.NumStages())
		for i := range caps {
			caps[i] = 1 + r.Intn(maxGPUs)
		}
		sc.ArbiterCaps = caps
		sc.ReplanEnabled = false
	}
	return sc
}

// String renders the scenario compactly for failure reports.
func (sc Scenario) String() string {
	return fmt.Sprintf(
		"seed=%d index=%d spec=%v model=%s inst=%s billing=%v market=%v minCharge=%gs dataGB=%.1f "+
			"faults={pfail=%.3f preemptMean=%.0fs} restore=%.1fs scatter=%v maxGPUs=%d deadlineFactor=%.2f "+
			"drift={x%.1f@%.2f} replan=%v threshold=%.2f cooldown=%.0fs caps=%v",
		sc.BatchSeed, sc.Index, sc.Spec, sc.Model.Name, sc.Profile.Instance.Name,
		sc.Profile.Pricing.Billing, sc.Profile.Pricing.Market, sc.Profile.Pricing.MinChargeSeconds,
		sc.Profile.DatasetGB, sc.Profile.Faults.ProvisionFailureProb, sc.Profile.Faults.PreemptionMeanSeconds,
		sc.Profile.RestoreSeconds, sc.DisablePlacement, sc.MaxGPUs, sc.DeadlineFactor,
		sc.Drift.Factor, sc.Drift.StartFraction, sc.ReplanEnabled, sc.DriftThreshold, sc.ReplanCooldown,
		sc.ArbiterCaps)
}
