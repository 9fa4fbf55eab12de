package harness_test

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/searchspace"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
)

// ExampleRunScenario demonstrates the end-to-end API: declare a
// Successive Halving job, let RubberBand compile a cost-minimizing
// elastic plan under a deadline, and execute it on the simulated cloud.
// The printed facts are structural (and deterministic for the fixed
// seed), not machine-dependent timings.
func ExampleRunScenario() {
	cp := sim.DefaultCloudProfile()
	cp.DatasetGB = model.CIFAR10.SizeGB
	cp.Overheads = cloud.Overheads{
		QueueDelay:  stats.Deterministic{Value: 5},
		InitLatency: stats.Deterministic{Value: 15},
	}
	sc := harness.Scenario{
		BatchSeed: 42,
		Spec:      spec.MustSHA(8, 1, 12, 3), // 8 -> 2 -> 1 trials
		Model:     model.ResNet101(),
		Space:     searchspace.DefaultVisionSpace(),
		Profile:   cp,
		Deadline:  15 * 60,
	}
	a, err := harness.RunScenario(sc)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("planned:", a.Planned)
	fmt.Println("stages:", len(a.Result.Schedule))
	fmt.Println("plan covers every stage:", len(a.Plan.Alloc) == sc.Spec.NumStages())
	fmt.Println("met deadline:", a.Result.JCT <= sc.Deadline)
	fmt.Println("one winner:", a.Result.BestTrial >= 0)
	// Output:
	// planned: true
	// stages: 3
	// plan covers every stage: true
	// met deadline: true
	// one winner: true
}
