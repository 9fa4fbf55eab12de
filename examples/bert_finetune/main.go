// bert_finetune tunes BERT fine-tuning hyperparameters on the RTE task
// (§6.3.2, Table 4's third row). BERT's heavy all-reduce traffic makes it
// the worst-scaling model in the zoo, so this example also prints the
// measured scaling profile to show why RubberBand's savings are smaller
// here than for the vision models: front-loading parallelism buys less
// when parallel efficiency decays quickly.
//
//	go run ./examples/bert_finetune
package main

import (
	"fmt"
	"log"

	"repro/internal/cloud"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/profiler"
	"repro/internal/searchspace"
	"repro/internal/spec"
	"repro/internal/stats"
)

func main() {
	m := model.BERT()

	// Instrumentation step: measure iteration latency at powers-of-two
	// allocations, exactly as RubberBand does before planning (§5).
	rep, err := profiler.Profile(m, m.BaseBatch, profiler.Options{MaxGPUs: 16}, stats.NewRNG(3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("measured scaling profile (BERT, batch 32):")
	for _, p := range rep.Points {
		fmt.Printf("  %2d GPUs: %5.2f s/iter  speedup %.2fx\n", p.GPUs, p.Mean, p.Speedup)
	}
	fmt.Printf("  (profiling consumed %.0fs of simulated time)\n\n", rep.Duration)

	cp := cloud.PaperProfile(m.Dataset.SizeGB)
	for _, policy := range []planner.Policy{planner.PolicyStatic, planner.PolicyRubberBand} {
		a, err := harness.RunScenario(harness.Scenario{
			BatchSeed:   5,
			Spec:        spec.MustSHA(32, 1, 30, 3),
			Model:       m,
			Space:       searchspace.DefaultNLPSpace(),
			Profile:     cp,
			Deadline:    20 * 60,
			Policy:      policy,
			UseProfiler: true, // plan from the measured profile
		})
		if err != nil {
			log.Fatalf("%v: %v", policy, err)
		}
		if !a.Planned {
			log.Fatalf("%v: no plan meets the deadline", policy)
		}
		fmt.Printf("%-11s plan %v  cost $%.2f  JCT %.0fs  best acc %.1f%%\n",
			policy, a.Plan, a.Result.Cost, a.Result.JCT, a.Result.BestAccuracy*100)
	}
}
