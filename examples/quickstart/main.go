// Quickstart: tune a ResNet-101 on CIFAR-10 with RubberBand in under a
// minute of real time.
//
// The example builds a Successive Halving experiment, lets RubberBand
// compile a cost-minimizing elastic allocation plan against a 20-minute
// deadline, executes it end-to-end on the simulated cloud, and prints the
// plan, the cost, and the winning hyperparameters.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/cloud"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/searchspace"
	"repro/internal/spec"
)

func main() {
	// 1. Describe the tuning job: 32 candidate configurations, pruned by
	//    Successive Halving with η=3 down to one survivor trained for 50
	//    epochs (the paper's Table 2 workload).
	sha := spec.MustSHA(32, 1, 50, 3)

	// 2. Pick the model, the search space to sample configurations
	//    from, and the cloud to run on.
	m := model.ResNet101()
	cp := cloud.PaperProfile(m.Dataset.SizeGB)
	cp.RestoreSeconds = 0 // checkpoints restore instantly in this demo
	sc := harness.Scenario{
		BatchSeed: 7,
		Spec:      sha,
		Model:     m,
		Space:     searchspace.DefaultVisionSpace(),
		Profile:   cp,
		Deadline:  20 * 60, // seconds
	}

	// 3. Plan and execute. RubberBand searches the elastic allocation
	//    space, provisions the simulated cluster stage by stage, and runs
	//    the tournament.
	a, err := harness.RunScenario(sc)
	if err != nil {
		log.Fatal(err)
	}
	if !a.Planned {
		log.Fatal("no plan meets the deadline")
	}

	fmt.Printf("spec:      %v\n", sha)
	fmt.Printf("plan:      %v GPUs across %d stages\n", a.Plan, sha.NumStages())
	fmt.Printf("predicted: JCT %.0fs  cost $%.2f\n", a.Estimate.JCT, a.Estimate.Cost)
	fmt.Printf("realized:  JCT %.0fs  cost $%.2f\n", a.Result.JCT, a.Result.Cost)
	fmt.Printf("winner:    %.1f%% accuracy with lr=%.4f\n",
		a.Result.BestAccuracy*100, a.Result.BestConfig.Float("lr"))
}
