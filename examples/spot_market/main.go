// spot_market explores the paper's deferred future work: running the
// tuning job on preemptible spot capacity. Spot instances cost ~3x less
// but are reclaimed at random; RubberBand's checkpoint/restore machinery
// absorbs the preemptions by replaying only the interrupted stage on
// automatically provisioned replacements.
//
// The example sweeps the preemption intensity and reports realized cost
// and JCT, showing the trade: cheap capacity vs recovery time — with the
// crossover point where spot stops paying off.
//
//	go run ./examples/spot_market
package main

import (
	"fmt"
	"log"

	"repro/internal/cloud"
	"repro/internal/executor"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/searchspace"
	"repro/internal/spec"
	"repro/internal/stats"
)

func main() {
	sha := spec.MustSHA(16, 1, 30, 3)
	run := func(market cloud.Market, preemptMean float64) (*executor.Result, error) {
		cp := cloud.PaperProfile(model.ResNet101().Dataset.SizeGB)
		cp.Pricing.Market = market
		cp.Overheads = cloud.Overheads{
			QueueDelay:  stats.Deterministic{Value: 5},
			InitLatency: stats.Deterministic{Value: 15},
		}
		cp.Faults.PreemptionMeanSeconds = preemptMean
		cp.RestoreSeconds = 5
		a, err := harness.RunScenario(harness.Scenario{
			BatchSeed: 17,
			Spec:      sha,
			Model:     model.ResNet101(),
			Space:     searchspace.DefaultVisionSpace(),
			Profile:   cp,
			Deadline:  25 * 60,
		})
		if err != nil {
			return nil, err
		}
		if !a.Planned {
			return nil, fmt.Errorf("no plan meets the deadline")
		}
		return a.Result, nil
	}

	onDemand, err := run(cloud.OnDemand, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-26s cost $%5.2f  JCT %4.0fs  preemptions %d\n",
		"on-demand (baseline)", onDemand.Cost, onDemand.JCT, onDemand.Preemptions)

	for _, mean := range []float64{0, 3600, 1200, 600, 300} {
		res, err := run(cloud.Spot, mean)
		if err != nil {
			log.Fatal(err)
		}
		label := "spot, no preemption"
		if mean > 0 {
			label = fmt.Sprintf("spot, preempt mean %4.0fs", mean)
		}
		fmt.Printf("%-26s cost $%5.2f  JCT %4.0fs  preemptions %d\n",
			label, res.Cost, res.JCT, res.Preemptions)
	}
	fmt.Println("\nspot capacity is ~3x cheaper; preemptions add replayed work and")
	fmt.Println("restore latency, eroding the discount as reclamation intensifies.")
}
