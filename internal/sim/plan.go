// Package sim predicts the completion time and dollar cost of executing a
// hyperparameter tuning job under a given resource allocation plan (§4.2).
//
// The simulator synthesizes a DAG-based execution model from the
// experiment specification and the plan, parameterized by a profiled
// training-latency scaling function and a cloud profile (provisioning
// overheads, instance pricing, billing granularity, data price). Repeated
// critical-path sampling over the DAG (Algorithm 1) yields JCT estimates;
// replaying each sampled schedule against the billing model yields cost
// estimates. The planner (package planner) uses these estimates as a black
// box to search the plan space.
package sim

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Plan is an elastic resource allocation plan: Alloc[i] is the number of
// GPUs allocated to the job during stage i, shared fairly among the
// stage's running trials.
type Plan struct {
	Alloc []int
}

// NewPlan returns a plan with the given per-stage allocations.
func NewPlan(alloc ...int) Plan { return Plan{Alloc: append([]int(nil), alloc...)} }

// Uniform returns a static plan allocating gpus to each of stages stages.
func Uniform(gpus, stages int) Plan { //rbvet:ignore unreached — executor, planner and integration tests build static plans with it
	a := make([]int, stages)
	for i := range a {
		a[i] = gpus
	}
	return Plan{Alloc: a}
}

// Clone returns a deep copy of the plan.
func (p Plan) Clone() Plan { return Plan{Alloc: append([]int(nil), p.Alloc...)} }

// Max returns the largest per-stage allocation (the peak cluster size in
// GPUs). Zero for an empty plan.
func (p Plan) Max() int {
	m := 0
	for _, a := range p.Alloc {
		if a > m {
			m = a
		}
	}
	return m
}

// IsStatic reports whether every stage receives the same allocation.
func (p Plan) IsStatic() bool { //rbvet:ignore unreached — planner, experiments and harness tests check plans are static through it
	for i := 1; i < len(p.Alloc); i++ {
		if p.Alloc[i] != p.Alloc[0] {
			return false
		}
	}
	return true
}

// Validate checks the plan against a stage count: one allocation per
// stage, each in [1, math.MaxInt32]. The bound keeps every allocation
// exact in the 32-bit segment keys and plan keys that estimates are
// memoized under, so no two valid plans share a key.
func (p Plan) Validate(stages int) error {
	if len(p.Alloc) != stages {
		return fmt.Errorf("sim: plan covers %d stages, spec has %d", len(p.Alloc), stages)
	}
	for i, a := range p.Alloc {
		if a < 1 || a > math.MaxInt32 {
			return fmt.Errorf("sim: stage %d allocated %d GPUs", i, a)
		}
	}
	return nil
}

// String renders the plan as "(8, 8, 4, 2)".
func (p Plan) String() string { return string(p.AppendString(nil)) }

// AppendString appends the plan's String rendering to b and returns the
// extended buffer.
func (p Plan) AppendString(b []byte) []byte {
	b = append(b, '(')
	for i, a := range p.Alloc {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = strconv.AppendInt(b, int64(a), 10)
	}
	return append(b, ')')
}

// Equal reports whether two plans are identical.
func (p Plan) Equal(q Plan) bool {
	if len(p.Alloc) != len(q.Alloc) {
		return false
	}
	for i := range p.Alloc {
		if p.Alloc[i] != q.Alloc[i] {
			return false
		}
	}
	return true
}

// Suffix returns a copy of the plan's allocations for stages
// from..Stages()-1, aligned with spec.ExperimentSpec.Suffix. It panics if
// from is out of [0, Stages()).
func (p Plan) Suffix(from int) Plan { //rbvet:ignore unreached — the replan reference tests cut plan tails with it
	if from < 0 || from >= len(p.Alloc) {
		panic(fmt.Sprintf("sim: plan suffix from stage %d of %d", from, len(p.Alloc)))
	}
	return Plan{Alloc: append([]int(nil), p.Alloc[from:]...)}
}

// Splice returns a copy of p whose allocations for stages
// from..Stages()-1 are replaced by tail — the replanner's plan surgery:
// executed and executing stages keep their allocations, only the future is
// rewritten. It panics unless tail covers exactly the replaced stages.
func (p Plan) Splice(from int, tail Plan) Plan { //rbvet:ignore unreached — the replan reference tests splice replanned tails with it
	if from < 0 || from > len(p.Alloc) {
		panic(fmt.Sprintf("sim: splice at stage %d of %d", from, len(p.Alloc)))
	}
	if got, want := len(tail.Alloc), len(p.Alloc)-from; got != want {
		panic(fmt.Sprintf("sim: splice tail covers %d stages, want %d", got, want))
	}
	out := p.Clone()
	copy(out.Alloc[from:], tail.Alloc)
	return out
}

// ParsePlan parses a comma-separated allocation list such as
// "16, 10, 12, 4" into a Plan.
func ParsePlan(s string) (Plan, error) {
	parts := strings.Split(s, ",")
	alloc := make([]int, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.Atoi(p)
		if err != nil {
			return Plan{}, fmt.Errorf("sim: plan element %q: %w", p, err)
		}
		if v < 1 {
			return Plan{}, fmt.Errorf("sim: plan element %d < 1", v)
		}
		alloc = append(alloc, v)
	}
	if len(alloc) == 0 {
		return Plan{}, fmt.Errorf("sim: empty plan %q", s)
	}
	return Plan{Alloc: alloc}, nil
}

// GPUsPerTrial returns the fair per-trial allocation for a stage with the
// given trial count: alloc/trials when the stage has at least one GPU per
// trial (the planner keeps alloc a multiple of trials), otherwise 1 GPU
// with trials queueing for slots.
func GPUsPerTrial(alloc, trials int) int {
	if alloc >= trials {
		return alloc / trials
	}
	return 1
}
