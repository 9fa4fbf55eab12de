// grid_search reproduces the paper's Figure 2 background: a basic
// hyperparameter grid search where every configuration trains to its full
// budget — and contrasts it with Successive Halving on the same grid
// under RubberBand, which reaches an equally good configuration at a
// fraction of the cost by pruning hopeless candidates early.
//
//	go run ./examples/grid_search
package main

import (
	"fmt"
	"log"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/executor"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/searchspace"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/vclock"
)

func main() {
	m := model.ResNet101()
	space := searchspace.MustNew(
		searchspace.LogUniform{Key: "lr", Lo: 1e-3, Hi: 1},
		searchspace.Uniform{Key: "momentum", Lo: 0.85, Hi: 0.95},
		searchspace.LogUniform{Key: "weight_decay", Lo: 1e-5, Hi: 1e-3},
	)
	grid, err := space.Grid(3, 0) // 27 configurations
	if err != nil {
		log.Fatal(err)
	}
	const fullBudget = 27 // epochs per configuration at convergence

	// --- Grid search: every config trains the full budget, one stage,
	// no pruning. Run it on the simulated cloud with a static cluster.
	clock := vclock.New()
	rng := stats.NewRNG(7)
	cp := cloud.PaperProfile(m.Dataset.SizeGB)
	provider, err := cloud.NewProvider(clock, rng.Split(), cp)
	if err != nil {
		log.Fatal(err)
	}
	mgr, err := cluster.NewManager(provider, cp.Instance, clock)
	if err != nil {
		log.Fatal(err)
	}
	gridSpec := spec.Empty().AddStage(len(grid), fullBudget)
	gridRes, err := executor.Run(executor.Config{
		Spec:     gridSpec,
		Plan:     sim.NewPlan(len(grid)), // one GPU per config
		Model:    m,
		Batch:    m.BaseBatch,
		Configs:  grid,
		Provider: provider,
		Cluster:  mgr,
		Clock:    clock,
		RNG:      rng,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grid search:  %2d configs x %d epochs  cost $%6.2f  JCT %5.0fs  best %.1f%%\n",
		len(grid), fullBudget, gridRes.Cost, gridRes.JCT, gridRes.BestAccuracy*100)

	// --- Successive Halving over the same search space, planned by
	// RubberBand against the grid search's realized JCT as the deadline.
	a, err := harness.RunScenario(harness.Scenario{
		BatchSeed: 7,
		Spec:      spec.MustSHA(27, 1, fullBudget, 3),
		Model:     m,
		Space:     space,
		Profile:   cp,
		Deadline:  gridRes.JCT,
	})
	if err != nil {
		log.Fatal(err)
	}
	if !a.Planned {
		log.Fatal("no plan meets the grid search's JCT")
	}
	shaRes := a.Result
	fmt.Printf("SHA + RubberBand: 27 -> 9 -> 3 -> 1   cost $%6.2f  JCT %5.0fs  best %.1f%%\n",
		shaRes.Cost, shaRes.JCT, shaRes.BestAccuracy*100)
	fmt.Printf("\nearly stopping + elastic allocation cut cost %.1fx — and random sampling\n", gridRes.Cost/shaRes.Cost)
	fmt.Println("covered the space better than the coarse 3-point-per-axis grid did")
}
