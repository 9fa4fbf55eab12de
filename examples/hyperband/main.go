// hyperband runs a full Hyperband(R=27, η=3) experiment as a RubberBand
// multi-job: each Successive Halving bracket is a declarative
// specification (Figure 6's "collection of specifications"), planned
// independently and executed *concurrently* on a shared virtual timeline
// — the multi-job's completion time is the slowest bracket, not the sum.
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
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/searchspace"
	"repro/internal/spec"
)

func main() {
	brackets, err := spec.Hyperband(27, 3)
	if err != nil {
		log.Fatal(err)
	}

	exp := &core.Experiment{
		Model:          model.ResNet101(),
		Space:          searchspace.DefaultVisionSpace(),
		Deadline:       15 * time.Minute,
		Policy:         core.PolicyRubberBand,
		Seed:           100,
		RestoreSeconds: 2,
	}

	fmt.Printf("Hyperband(R=27, η=3): %d brackets, executed concurrently\n\n", len(brackets))
	res, err := exp.RunMultiJob(brackets)
	if err != nil {
		log.Fatal(err)
	}
	for i, b := range res.Brackets {
		fmt.Printf("bracket %d: spec %-28v plan %-18v cost $%5.2f  JCT %4.0fs  best %.1f%%\n",
			i, b.Spec, b.Plan, b.Actual.Cost, b.Actual.JCT, b.Actual.BestAccuracy*100)
	}
	fmt.Printf("\nmulti-job: total cost $%.2f, JCT %.0fs (slowest bracket, not the sum)\n",
		res.TotalCost, res.JCT)
	fmt.Printf("global winner: %.1f%% accuracy, lr=%.4f\n",
		res.BestAccuracy*100, res.BestConfig.Float("lr"))
}
