package core

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/executor"
	"repro/internal/searchspace"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// BracketResult is one bracket's outcome within a multi-job.
type BracketResult struct {
	Spec      *spec.ExperimentSpec
	Plan      sim.Plan
	Predicted sim.Estimate
	Actual    *executor.Result
}

// MultiResult aggregates a concurrently executed multi-job (Figure 6's
// "collection of specifications", e.g. Hyperband's brackets).
type MultiResult struct {
	Brackets []BracketResult
	// TotalCost sums every bracket's realized cost.
	TotalCost float64
	// JCT is the multi-job's completion time: the max across brackets,
	// since they run concurrently on one (virtual) cloud.
	JCT float64
	// BestAccuracy/BestConfig identify the global winner.
	BestAccuracy float64
	BestConfig   searchspace.Config
}

// RunMultiJob plans each bracket independently under the template
// experiment's deadline and policy, then executes all brackets
// concurrently in a single virtual timeline: one shared clock, one
// provider and cluster manager per bracket (brackets scale independently;
// costs aggregate). The template's Spec field is ignored; each bracket
// supplies its own.
func (e *Experiment) RunMultiJob(brackets []*spec.ExperimentSpec) (*MultiResult, error) {
	if len(brackets) == 0 {
		return nil, fmt.Errorf("core: no brackets")
	}
	// Plan every bracket first (planning is offline, §3.1).
	plans := make([]sim.Plan, len(brackets))
	preds := make([]sim.Estimate, len(brackets))
	for i, b := range brackets {
		be := *e
		be.Spec = b
		be.Seed = e.Seed + uint64(i)*7919
		res, _, err := be.Plan()
		if err != nil {
			return nil, fmt.Errorf("core: bracket %d: %w", i, err)
		}
		plans[i] = res.Plan
		preds[i] = res.Estimate
	}

	// One shared timeline for all brackets.
	clock := vclock.New()
	cp := e.cloudProfile()
	jobs := make([]*executor.Job, len(brackets))
	providers := make([]*cloud.Provider, len(brackets))
	for i, b := range brackets {
		seed := e.Seed + uint64(i)*7919
		rng := stats.NewRNG(seed + 2)
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
		configs := e.Space.SampleN(stats.NewRNG(seed+3), b.TotalTrials())
		job, err := executor.Start(executor.Config{
			Spec:             b,
			Plan:             plans[i],
			Model:            e.Model,
			Batch:            e.batch(),
			Configs:          configs,
			Provider:         provider,
			Cluster:          mgr,
			Clock:            clock,
			RNG:              rng,
			DisablePlacement: e.DisablePlacement,
			RestoreSeconds:   e.RestoreSeconds,
		})
		if err != nil {
			return nil, fmt.Errorf("core: bracket %d: %w", i, err)
		}
		jobs[i] = job
		providers[i] = provider
	}

	clock.RunUntil(func() bool {
		for _, j := range jobs {
			if !j.Done() {
				return false
			}
		}
		return true
	})

	return collectMulti(brackets, plans, preds, jobs)
}

// collectMulti aggregates the brackets' outcomes.
func collectMulti(brackets []*spec.ExperimentSpec, plans []sim.Plan, preds []sim.Estimate,
	jobs []*executor.Job) (*MultiResult, error) {
	out := &MultiResult{}
	for i, j := range jobs {
		actual, err := j.Result()
		if err != nil {
			return nil, fmt.Errorf("core: bracket %d: %w", i, err)
		}
		out.Brackets = append(out.Brackets, BracketResult{
			Spec:      brackets[i],
			Plan:      plans[i],
			Predicted: preds[i],
			Actual:    actual,
		})
		out.TotalCost += actual.Cost
		if actual.JCT > out.JCT {
			out.JCT = actual.JCT
		}
		if actual.BestAccuracy > out.BestAccuracy {
			out.BestAccuracy = actual.BestAccuracy
			out.BestConfig = actual.BestConfig
		}
	}
	return out, nil
}
