// cifar_resnet101 reproduces the paper's end-to-end comparison (§6.3.1,
// Table 2) at one deadline: tuning ResNet-101 on CIFAR-10 under a
// 20-minute constraint with the static, naive-elastic and RubberBand
// policies, reporting simulated and realized JCT/cost for each.
//
// The expected shape: RubberBand's cost is well below the static
// baseline's at this tight deadline; the naive elastic policy demands a
// large first-stage cluster and still doesn't win.
//
//	go run ./examples/cifar_resnet101
package main

import (
	"fmt"
	"log"

	"repro/internal/cloud"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/searchspace"
	"repro/internal/spec"
	"repro/internal/stats"
)

func main() {
	m := model.ResNet101()
	sha := spec.MustSHA(32, 1, 50, 3)

	// 15-second provisioning from a warm pool, as in the paper's setup.
	cp := cloud.PaperProfile(m.Dataset.SizeGB)
	cp.Overheads = cloud.Overheads{
		QueueDelay:  stats.Deterministic{Value: 5},
		InitLatency: stats.Deterministic{Value: 15},
	}

	fmt.Printf("tuning %s on %s, spec %v, deadline 20m\n\n", m.Name, m.Dataset.Name, sha)
	fmt.Printf("%-14s %-22s %-10s %-11s %-10s %-11s\n",
		"policy", "plan", "JCT sim", "cost sim", "JCT real", "cost real")

	for _, policy := range []planner.Policy{planner.PolicyStatic, planner.PolicyNaiveElastic, planner.PolicyRubberBand} {
		sc := harness.Scenario{
			BatchSeed: 11,
			Spec:      sha,
			Model:     m,
			Space:     searchspace.DefaultVisionSpace(),
			Profile:   cp,
			MaxGPUs:   128,
			Deadline:  20 * 60,
			Policy:    policy,
		}
		a, err := harness.RunScenario(sc)
		if err != nil {
			log.Fatalf("%v: %v", policy, err)
		}
		if !a.Planned {
			log.Fatalf("%v: no plan meets the deadline", policy)
		}
		fmt.Printf("%-14s %-22s %-10.0f $%-10.2f %-10.0f $%-10.2f\n",
			policy, a.Plan, a.Estimate.JCT, a.Estimate.Cost, a.Result.JCT, a.Result.Cost)
	}
}
