package planner

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/sim"
	"repro/internal/spec"
)

// InstanceChoice is one instance type's best plan under a deadline.
type InstanceChoice struct {
	Instance cloud.InstanceType
	Result   Result
	// Feasible is false when no plan on this type meets the deadline
	// within the resource cap; Result is then zero.
	Feasible bool
}

// InstanceSelection is the outcome of SelectInstanceType.
type InstanceSelection struct {
	// Best is the cheapest feasible choice.
	Best InstanceChoice
	// Choices holds every evaluated type, in catalog-name order.
	Choices []InstanceChoice
}

// ProfileBuilder constructs the training profile for a candidate worker
// type (iteration latencies depend on GPUs-per-node through the placement
// spread). sim.ModelTrainProfile curried over a model and batch is the
// usual implementation.
type ProfileBuilder func(it cloud.InstanceType) sim.TrainProfile

// SelectInstanceType extends the planner across the provider's catalog:
// the paper assumes the user picks the worker instance type (§3), but
// notes the rich price/performance trade-off space (§2.2, citing Ernest
// and CherryPick). This routine compiles the elastic plan for every
// GPU-bearing type in the catalog and returns the cheapest feasible
// combination of type and plan.
//
// The trade-off it navigates: bigger nodes co-locate larger gangs (less
// cross-node all-reduce) but provision in coarser, more expensive units;
// small nodes are fine-grained but fragment multi-GPU trials.
func SelectInstanceType(
	catalog *cloud.Catalog,
	s *spec.ExperimentSpec,
	profiles ProfileBuilder,
	base sim.CloudProfile,
	deadline float64,
	maxGPUs int,
) (*InstanceSelection, error) {
	if catalog == nil || profiles == nil {
		return nil, fmt.Errorf("planner: nil catalog or profile builder")
	}
	sel := &InstanceSelection{}
	found := false
	for _, name := range catalog.Names() {
		it, err := catalog.Lookup(name)
		if err != nil {
			return nil, err
		}
		if it.GPUs < 1 {
			continue // CPU-only coordination tier
		}
		cp := base
		cp.Instance = it
		sm, err := sim.New(s, profiles(it), cp, 0, nil)
		if err != nil {
			return nil, err
		}
		p := &Planner{Sim: sm, Deadline: deadline, MaxGPUs: maxGPUs}
		res, err := p.PlanElastic()
		choice := InstanceChoice{Instance: it}
		switch err {
		case nil:
			choice.Result = res
			choice.Feasible = true
		case ErrInfeasible:
			// Recorded as infeasible; other types may still work.
		default:
			return nil, fmt.Errorf("planner: instance %s: %w", name, err)
		}
		sel.Choices = append(sel.Choices, choice)
		if choice.Feasible && (!found || choice.Result.Estimate.Cost < sel.Best.Result.Estimate.Cost) {
			sel.Best = choice
			found = true
		}
	}
	if !found {
		return nil, ErrInfeasible
	}
	return sel, nil
}
