package core_test

import (
	"fmt"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/searchspace"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
)

// Example demonstrates the end-to-end API: declare a Successive Halving
// job, let RubberBand compile a cost-minimizing elastic plan under a
// deadline, and execute it on the simulated cloud. The printed facts are
// structural (and deterministic for the fixed seed), not machine-
// dependent timings.
func Example() {
	cp := sim.DefaultCloudProfile()
	cp.DatasetGB = model.CIFAR10.SizeGB
	cp.Overheads = cloud.Overheads{
		QueueDelay:  stats.Deterministic{Value: 5},
		InitLatency: stats.Deterministic{Value: 15},
	}
	exp := &core.Experiment{
		Model:    model.ResNet101(),
		Space:    searchspace.DefaultVisionSpace(),
		Spec:     spec.MustSHA(8, 1, 12, 3), // 8 -> 2 -> 1 trials
		Cloud:    cp,
		Deadline: 15 * time.Minute,
		Policy:   core.PolicyRubberBand,
		Seed:     42,
		Samples:  5,
	}
	res, err := exp.Run()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("stages:", len(res.Actual.Schedule))
	fmt.Println("plan covers every stage:", len(res.Plan.Alloc) == exp.Spec.NumStages())
	fmt.Println("met deadline:", res.Actual.JCT <= exp.Deadline.Seconds())
	fmt.Println("one winner:", res.Actual.BestTrial >= 0)
	// Output:
	// stages: 3
	// plan covers every stage: true
	// met deadline: true
	// one winner: true
}
