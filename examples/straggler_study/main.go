// straggler_study explores the interaction of straggler variance and
// billing granularity (§6.1.1, Figure 9): the same tuning job is priced
// under per-instance and per-function billing while the per-iteration
// latency noise grows, showing why synchronization barriers make
// stragglers expensive when idle resources are still metered.
//
//	go run ./examples/straggler_study
package main

import (
	"fmt"
	"log"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
)

func main() {
	sha := spec.MustSHA(64, 4, 508, 2)
	fmt.Printf("SHA job %v, ResNet-50 @ batch 512, p3.8xlarge workers\n\n", sha)
	fmt.Printf("%-8s %-14s %-14s %-9s\n", "σ (s)", "per-instance", "per-function", "ratio")

	// A fixed front-loaded elastic plan: one GPU per trial early, the
	// survivor on a single node late.
	plan := sim.NewPlan(64, 32, 16, 8, 8, 4, 4)

	for _, sigma := range []float64{0, 1, 2, 4, 6, 8, 10} {
		m := model.ResNet50()
		m.IterNoiseStd = sigma

		cost := func(billing cloud.BillingModel) float64 {
			it, err := cloud.DefaultCatalog().Lookup("p3.8xlarge")
			if err != nil {
				log.Fatal(err)
			}
			cp := sim.CloudProfile{
				Instance: it,
				Pricing: cloud.Pricing{
					Billing:          billing,
					MinChargeSeconds: 60,
				},
				Overheads: cloud.Overheads{
					QueueDelay:  stats.Deterministic{Value: 5},
					InitLatency: stats.Deterministic{Value: 0},
				},
			}
			prof := sim.ModelTrainProfile{Model: m, Batch: 512, GPUsPerNode: it.GPUs}
			sm, err := sim.New(sha, prof, cp, 0, nil)
			if err != nil {
				log.Fatal(err)
			}
			est, err := sm.Estimate(plan)
			if err != nil {
				log.Fatal(err)
			}
			return est.Cost
		}

		perInst := cost(cloud.PerInstance)
		perFn := cost(cloud.PerFunction)
		fmt.Printf("%-8g $%-13.2f $%-13.2f %.2fx\n", sigma, perInst, perFn, perInst/perFn)
	}
	fmt.Println("\nper-instance billing pays for idle GPUs held at stage barriers;")
	fmt.Println("per-function billing releases them the moment a trial finishes.")
}
