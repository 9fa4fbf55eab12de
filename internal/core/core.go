// Package core is RubberBand's public façade: it wires the profiler,
// simulator, planner, cluster manager, placement controller and executor
// into a single Experiment type that plans and runs a hyperparameter
// tuning job end-to-end on the simulated cloud.
//
// Typical use mirrors the paper's API sketch (Figure 6):
//
//	exp := &core.Experiment{
//	    Model:    model.ResNet101(),
//	    Space:    searchspace.DefaultVisionSpace(),
//	    Spec:     spec.MustSHA(32, 1, 50, 3),
//	    Deadline: 20 * time.Minute,
//	    Policy:   core.PolicyRubberBand,
//	}
//	res, err := exp.Run()
package core

import (
	"fmt"
	"time"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/executor"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/profiler"
	"repro/internal/searchspace"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// Policy selects the resource allocation policy.
type Policy int

const (
	// PolicyRubberBand is the elastic cost-minimizing planner (§4.3).
	PolicyRubberBand Policy = iota
	// PolicyStatic is the cost-optimal fixed-cluster baseline (§3.2).
	PolicyStatic
	// PolicyNaiveElastic resizes the cluster but keeps a fixed per-trial
	// allocation, as in prior work (§6.3.1).
	PolicyNaiveElastic
)

// String returns the policy name used in tables.
func (p Policy) String() string {
	switch p {
	case PolicyRubberBand:
		return "RubberBand"
	case PolicyStatic:
		return "Static"
	case PolicyNaiveElastic:
		return "Naive elastic"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Experiment configures one tuning job. Zero values select sensible
// defaults where noted.
type Experiment struct {
	// Model is the architecture being tuned (required).
	Model *model.Model
	// Batch is the fixed effective batch size; zero selects the model's
	// BaseBatch.
	Batch int
	// Space is the hyperparameter search space (required).
	Space *searchspace.Space
	// Spec is the early-stopping experiment structure (required).
	Spec *spec.ExperimentSpec
	// Cloud is the provider profile; the zero value selects
	// sim.DefaultCloudProfile() with the model's dataset size.
	Cloud sim.CloudProfile
	// Deadline is the job's time constraint (required).
	Deadline time.Duration
	// Policy selects the allocation policy (default PolicyRubberBand).
	Policy Policy
	// Seed drives every random choice; runs with equal seeds are
	// identical.
	Seed uint64
	// Samples is the simulator's Monte-Carlo sample count (default
	// sim.DefaultSamples).
	Samples int
	// Workers bounds the planning-time concurrency: both the simulator's
	// Monte-Carlo sample fan-out and the planner's candidate evaluation
	// pool. Zero selects GOMAXPROCS; 1 forces fully serial planning.
	// Planning output is bit-identical at any worker count.
	Workers int
	// Estimator selects the simulator's estimator mode. The zero value is
	// sim.EstimatorSegment (incremental stage-segment sampling with common
	// random numbers); sim.EstimatorAnalytic propagates moments instead of
	// sampling.
	Estimator sim.EstimatorMode
	// MaxGPUs caps cluster size during planning (default per planner).
	MaxGPUs int
	// UseProfiler plans from a measured scaling profile (powers-of-two
	// instrumentation, §5) instead of the analytic ground truth. This is
	// how the real system operates; disabling it isolates planning error
	// from profiling error.
	UseProfiler bool
	// RestoreSeconds is the per-migration checkpoint restore latency.
	RestoreSeconds float64
	// DisablePlacement scatters workers (ablation, Table 1).
	DisablePlacement bool
	// Faults injects provider-side failures (provisioning failures,
	// spot preemption) into execution. The zero value is a fault-free
	// provider, matching the paper's assumptions.
	Faults cloud.FaultModel
	// Trace, if set, records execution events.
	Trace *trace.Recorder
}

// Result combines the plan, its simulated prediction and the realized
// execution.
type Result struct {
	Policy    Policy
	Plan      sim.Plan
	Predicted sim.Estimate
	Actual    *executor.Result
	// ProfilingDuration is the simulated time spent in the
	// instrumentation step (0 unless UseProfiler).
	ProfilingDuration float64
}

func (e *Experiment) validate() error {
	switch {
	case e.Model == nil:
		return fmt.Errorf("core: nil model")
	case e.Space == nil:
		return fmt.Errorf("core: nil search space")
	case e.Spec == nil:
		return fmt.Errorf("core: nil spec")
	case e.Deadline <= 0:
		return fmt.Errorf("core: non-positive deadline")
	}
	return e.Model.Validate()
}

func (e *Experiment) batch() int {
	if e.Batch > 0 {
		return e.Batch
	}
	return e.Model.BaseBatch
}

func (e *Experiment) cloudProfile() sim.CloudProfile {
	cp := e.Cloud
	if cp.Instance.Name == "" {
		cp = sim.DefaultCloudProfile()
		cp.DatasetGB = e.Model.Dataset.SizeGB
	}
	return cp
}

// buildPlanner constructs the simulator and planner for this experiment,
// returning also the profiling duration (0 when planning from the
// analytic profile).
func (e *Experiment) buildPlanner() (*planner.Planner, float64, error) {
	cp := e.cloudProfile()
	var (
		prof     sim.TrainProfile
		profTime float64
	)
	if e.UseProfiler {
		rep, err := profiler.Profile(e.Model, e.batch(), profiler.Options{
			MaxGPUs:     maxProbe(cp.Instance.GPUs),
			GPUsPerNode: cp.Instance.GPUs,
		}, stats.NewRNG(e.Seed^0x9e3779b97f4a7c15))
		if err != nil {
			return nil, 0, err
		}
		prof = rep.Profile
		profTime = rep.Duration
	} else {
		prof = sim.ModelTrainProfile{Model: e.Model, Batch: e.batch(), GPUsPerNode: cp.Instance.GPUs}
	}
	sm, err := sim.New(e.Spec, prof, cp, e.Samples, stats.NewRNG(e.Seed+1), sim.WithWorkers(e.Workers), sim.WithEstimator(e.Estimator))
	if err != nil {
		return nil, 0, err
	}
	return &planner.Planner{
		Sim:      sm,
		Deadline: e.Deadline.Seconds(),
		MaxGPUs:  e.MaxGPUs,
		Workers:  e.Workers,
	}, profTime, nil
}

// maxProbe sizes the profiler sweep: enough to cover the largest per-trial
// allocation plans are likely to use.
func maxProbe(gpn int) int {
	probe := 4 * gpn
	if probe < 16 {
		probe = 16
	}
	return probe
}

// Plan compiles an allocation plan under the experiment's policy without
// executing it.
func (e *Experiment) Plan() (planner.Result, float64, error) {
	if err := e.validate(); err != nil {
		return planner.Result{}, 0, err
	}
	p, profTime, err := e.buildPlanner()
	if err != nil {
		return planner.Result{}, 0, err
	}
	var res planner.Result
	switch e.Policy {
	case PolicyStatic:
		res, err = p.PlanStatic()
	case PolicyNaiveElastic:
		res, err = p.PlanNaiveElastic()
	case PolicyRubberBand:
		res, err = p.PlanElastic()
	default:
		return planner.Result{}, 0, fmt.Errorf("core: unknown policy %d", e.Policy)
	}
	return res, profTime, err
}

// Execute runs a given plan end-to-end on a fresh simulated cloud and
// returns the realized result.
func (e *Experiment) Execute(plan sim.Plan) (*executor.Result, error) {
	if err := e.validate(); err != nil {
		return nil, err
	}
	cp := e.cloudProfile()
	clock := vclock.New()
	rng := stats.NewRNG(e.Seed + 2)
	provider, err := cloud.NewProvider(clock, rng.Split(), cp.Pricing, cp.Overheads, cp.DatasetGB)
	if err != nil {
		return nil, err
	}
	if err := provider.SetFaults(e.Faults); err != nil {
		return nil, err
	}
	mgr, err := cluster.NewManager(provider, cp.Instance, clock)
	if err != nil {
		return nil, err
	}
	configs := e.Space.SampleN(stats.NewRNG(e.Seed+3), e.Spec.TotalTrials())
	return executor.Run(executor.Config{
		Spec:             e.Spec,
		Plan:             plan,
		Model:            e.Model,
		Batch:            e.batch(),
		Configs:          configs,
		Provider:         provider,
		Cluster:          mgr,
		Clock:            clock,
		RNG:              rng,
		DisablePlacement: e.DisablePlacement,
		RestoreSeconds:   e.RestoreSeconds,
		Trace:            e.Trace,
	})
}

// Run plans under the experiment's policy and executes the plan,
// returning both the prediction and the realized outcome.
func (e *Experiment) Run() (*Result, error) {
	pres, profTime, err := e.Plan()
	if err != nil {
		return nil, err
	}
	actual, err := e.Execute(pres.Plan)
	if err != nil {
		return nil, err
	}
	return &Result{
		Policy:            e.Policy,
		Plan:              pres.Plan,
		Predicted:         pres.Estimate,
		Actual:            actual,
		ProfilingDuration: profTime,
	}, nil
}
