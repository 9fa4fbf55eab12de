// hyperband runs a full Hyperband(R=27, η=3) experiment as a RubberBand
// multi-job: each Successive Halving bracket is a declarative
// specification (Figure 6's "collection of specifications"), planned
// independently and executed concurrently — the multi-job's completion
// time is the slowest bracket, not the sum. The brackets share no
// provider, cluster or random stream, so each runs on its own virtual
// clock as scenario i of one batch, exactly as it would beside the
// others.
//
// The brackets trade exploration (many configurations, aggressive
// pruning) against exploitation (few configurations, full budgets);
// RubberBand shrinks each bracket's cluster as its trials are pruned and
// the global winner is taken across brackets.
//
//	go run ./examples/hyperband
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
	brackets, err := spec.Hyperband(27, 3)
	if err != nil {
		log.Fatal(err)
	}
	m := model.ResNet101()
	cp := cloud.PaperProfile(m.Dataset.SizeGB)

	fmt.Printf("Hyperband(R=27, η=3): %d brackets, executed concurrently\n\n", len(brackets))
	var totalCost, jct float64
	var best *harness.Artifacts
	for i, b := range brackets {
		a, err := harness.RunScenario(harness.Scenario{
			BatchSeed: 100,
			Index:     i,
			Spec:      b,
			Model:     m,
			Space:     searchspace.DefaultVisionSpace(),
			Profile:   cp,
			Deadline:  15 * 60,
		})
		if err != nil {
			log.Fatal(err)
		}
		if !a.Planned {
			log.Fatalf("bracket %d: no plan meets the deadline", i)
		}
		fmt.Printf("bracket %d: spec %-28v plan %-18v cost $%5.2f  JCT %4.0fs  best %.1f%%\n",
			i, b, a.Plan, a.Result.Cost, a.Result.JCT, a.Result.BestAccuracy*100)
		totalCost += a.Result.Cost
		jct = max(jct, a.Result.JCT)
		if best == nil || a.Result.BestAccuracy > best.Result.BestAccuracy {
			best = a
		}
	}
	fmt.Printf("\nmulti-job: total cost $%.2f, JCT %.0fs (slowest bracket, not the sum)\n",
		totalCost, jct)
	fmt.Printf("global winner: %.1f%% accuracy, lr=%.4f\n",
		best.Result.BestAccuracy*100, best.Result.BestConfig.Float("lr"))
}
