// Package repro benchmarks the reproduction's experiment harness: one
// benchmark per paper table/figure (running the same code paths as
// cmd/experiments, at reduced sweep sizes so the suite stays fast) plus
// micro-benchmarks of the planner, simulator, placement controller and
// executor hot paths.
//
// Regenerate the full-size artifacts with:
//
//	go run ./cmd/experiments -run all
package repro

import (
	"fmt"
	"testing"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/placement"
	"repro/internal/planner"
	"repro/internal/replan"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// benchCfg matches the experiment tests' fast configuration.
func benchCfg() experiments.Config {
	return experiments.Config{Seed: 1, Seeds: 2, Fast: true}
}

// BenchmarkFig4Scaling regenerates Figure 4 (model scaling curves).
func BenchmarkFig4Scaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9Stragglers regenerates Figure 9 (straggler/billing sweep).
func BenchmarkFig9Stragglers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10DataPrice regenerates Figure 10 (data I/O price sweep).
func BenchmarkFig10DataPrice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11JobSize regenerates Figure 11 (trial-count sweep).
func BenchmarkFig11JobSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12InitLatency regenerates Figure 12 (init-latency sweep).
func BenchmarkFig12InitLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Placement regenerates Table 1 (placement ablation).
func BenchmarkTable1Placement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2EndToEnd regenerates Table 2 (deadline sweep, all three
// policies, planned and executed).
func BenchmarkTable2EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Schedule regenerates Table 3 (the realized elastic
// schedule of the 20-minute plan).
func BenchmarkTable3Schedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4Models regenerates Table 4 (cost across models).
func BenchmarkTable4Models(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPlanner regenerates the planner design-choice
// ablations.
func BenchmarkAblationPlanner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablation(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionASHA regenerates the ASHA-vs-RubberBand comparison.
func BenchmarkExtensionASHA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ASHA(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionSpot regenerates the spot-preemption sweep.
func BenchmarkExtensionSpot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Spot(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFidelity regenerates the randomized sim-vs-real validation.
func BenchmarkFidelity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fidelity(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionInstances regenerates the instance-type selection.
func BenchmarkExtensionInstances(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Instances(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the hot paths ---

// benchSimulator builds the benchmark workload's simulator.
func benchSimulator(b *testing.B) *sim.Simulator {
	b.Helper()
	sm := new(sim.Simulator)
	initBenchSimulator(b, sm)
	return sm
}

// benchWorkload is the planning workload every planner, estimator and
// replan micro-benchmark runs on: ResNet50 on a 64-trial, 4-stage SHA
// under deterministic provisioning overheads.
func benchWorkload() (*spec.ExperimentSpec, sim.ModelTrainProfile, sim.CloudProfile) {
	prof := sim.ModelTrainProfile{Model: model.ResNet50(), Batch: 512, GPUsPerNode: 4}
	cp := sim.DefaultCloudProfile()
	cp.Overheads = cloud.Overheads{
		QueueDelay:  stats.Deterministic{Value: 5},
		InitLatency: stats.Deterministic{Value: 15},
	}
	return spec.MustSHA(64, 4, 508, 2), prof, cp
}

// initBenchSimulator initialises sm in place as the Simulator
// benchSimulator returns.
func initBenchSimulator(b *testing.B, sm *sim.Simulator) {
	b.Helper()
	s, prof, cp := benchWorkload()
	if err := sm.Init(s, prof, cp); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimEstimate measures one repeated plan evaluation: a hit in
// the Simulator's plan memo, which is how a search meets a candidate it
// has already scored.
func BenchmarkSimEstimate(b *testing.B) {
	sm := benchSimulator(b)
	plan := sim.Uniform(32, sm.Spec().NumStages())
	if _, err := sm.Estimate(plan); err != nil { // warm caches once
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sm.Estimate(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanStatic measures the warm-start enumeration on a warm
// Simulator: every estimate it requests is a plan-memo hit, and every
// size the JCT bound keeps past the first feasible one costs a static
// cost floor. estimates/op counts only the sizes the floor did not skip.
func BenchmarkPlanStatic(b *testing.B) {
	p := &planner.Planner{Sim: benchSimulator(b), Deadline: 900, MaxGPUs: 128}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.PlanStatic(); err != nil {
			b.Fatal(err)
		}
	}
	reportSearchWork(b, p)
}

// reportSearchWork reports p's work per search: the plan estimates it
// requested, memo hits included.
func reportSearchWork(b *testing.B, p *planner.Planner) {
	b.ReportMetric(float64(p.EstimateCalls())/float64(b.N), "estimates/op")
}

// BenchmarkPlanElastic measures a full greedy plan compilation
// (Algorithm 2 with multi-warm-start).
func BenchmarkPlanElastic(b *testing.B) {
	p := &planner.Planner{Sim: benchSimulator(b), Deadline: 900, MaxGPUs: 128}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.PlanElastic(); err != nil {
			b.Fatal(err)
		}
	}
	reportSearchWork(b, p)
}

// BenchmarkPlanElastic100 measures a full greedy compilation on a
// shared Simulator, a fresh Planner per iteration (the name recalls the
// sample count searches once ran at).
// The Simulator's segment table and plan memo stay warm across
// iterations; BenchmarkPlanElastic100Cold and
// BenchmarkPlanElasticLifecycle measure cold compilations.
func BenchmarkPlanElastic100(b *testing.B) {
	sm := benchSimulator(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &planner.Planner{Sim: sm, Deadline: 900, MaxGPUs: 128}
		if _, err := p.PlanElastic(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanElastic100Cold rebuilds the Simulator every iteration, so
// every segment is compiled and its moments filled from scratch — the honest
// cold-start cost of one plan compilation, with no cross-iteration cache
// reuse.
func BenchmarkPlanElastic100Cold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sm := benchSimulator(b)
		p := &planner.Planner{Sim: sm, Deadline: 900, MaxGPUs: 128}
		if _, err := p.PlanElastic(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanElasticLifecycle measures the kept Simulator of the
// replanner and the harness: Init, then one cold PlanElastic. From the
// second iteration on, each search fills the table the previous one
// filled, emptied by Init.
func BenchmarkPlanElasticLifecycle(b *testing.B) {
	b.ReportAllocs()
	var sm sim.Simulator
	for i := 0; i < b.N; i++ {
		initBenchSimulator(b, &sm)
		p := &planner.Planner{Sim: &sm, Deadline: 900, MaxGPUs: 128}
		if _, err := p.PlanElastic(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchController builds a replanning controller over the benchmark
// workload and feeds it a drifted observation window (iterations 1.5x
// slower than predicted), so each Replan call exercises the full warm
// path: profile refit, tail re-plan under the remaining deadline, and
// splice. reset initialises the controller again and feeds it the same
// window, so the next decision is its first again.
func benchController(b *testing.B) (ctl *replan.Controller, state replan.State, reset func()) {
	b.Helper()
	s, prof, cp := benchWorkload()
	cfg := replan.Config{
		Spec:     s,
		Profile:  prof,
		Cloud:    cp,
		Deadline: 900,
		MaxGPUs:  128,
	}
	plan := sim.Uniform(32, s.NumStages())
	gpus := sim.GPUsPerTrial(plan.Alloc[0], s.Stage(0).Trials)
	pred := prof.IterDist(gpus).Mean()
	ctl = new(replan.Controller)
	reset = func() {
		if err := ctl.Init(cfg); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			ctl.ObserveIteration(gpus, 1.5*pred, vclock.Time(i))
		}
	}
	reset()
	return ctl, replan.State{Stage: 0, Now: 100, RemainingIters: s.Stage(0).Iters, Plan: plan}, reset
}

// BenchmarkReplan measures one warm online replanning decision: the
// controller's first decision after it is reset and fed its
// observations again outside the timer, so every iteration takes the
// same decision on recycled storage.
func BenchmarkReplan(b *testing.B) {
	ctl, state, reset := benchController(b)
	// Warm the controller and the package pools until their storage
	// holds the decision: the tables the decision's Simulators draw
	// reach their sizes over a few decisions.
	for i := 0; i < 4; i++ {
		reset()
		if _, err := ctl.Replan(state, replan.ReasonDrift); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		reset()
		b.StartTimer()
		if _, err := ctl.Replan(state, replan.ReasonDrift); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanFrontier measures one analytic score of a 128-candidate
// uniform frontier on a Simulator re-initialised outside the timer:
// every segment built and its moments filled, and every plan memoized,
// on the storage the previous iteration's table kept.
func BenchmarkPlanFrontier(b *testing.B) {
	const frontier = 128
	var sm sim.Simulator
	initBenchSimulator(b, &sm)
	plans := make([]sim.Plan, frontier)
	for g := 1; g <= frontier; g++ {
		plans[g-1] = sim.Uniform(g, sm.Spec().NumStages())
	}
	score := func() {
		for _, p := range plans {
			if _, err := sm.Estimate(p); err != nil {
				b.Fatal(err)
			}
		}
	}
	score() // grow the table's storage
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		initBenchSimulator(b, &sm)
		b.StartTimer()
		score()
	}
}

// placementShape is trials trials of 4 GPUs over trials/2 nodes of 8
// GPUs, as an allocation column of 2*trials trials whose first trials
// are live.
func placementShape(trials int) ([]int32, []*cluster.Node) {
	cnodes := make([]*cluster.Node, trials/2)
	for i := range cnodes {
		cnodes[i] = &cluster.Node{ID: cluster.NodeID(i), GPUs: 8}
	}
	allocs := make([]int32, 2*trials)
	for i := range allocs {
		allocs[i] = -1
		if i < trials {
			allocs[i] = 4
		}
	}
	return allocs, cnodes
}

// BenchmarkPlacementUpdate measures one cold placement epoch: 32 trials
// placed across 16 nodes by a fresh controller (Algorithm 3).
func BenchmarkPlacementUpdate(b *testing.B) {
	allocs, cnodes := placementShape(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := new(placement.Controller)
		c.Reset(8)
		if _, err := c.Update(allocs, cnodes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlacementHandoff measures the executor's most frequent epoch,
// a warm queue hand-off on the same shape at 8, 32 and 64 live trials:
// one trial leaves its slot and a queued trial of the same size joins.
// Its cost should not grow with the trial count.
func BenchmarkPlacementHandoff(b *testing.B) {
	for _, trials := range []int{8, 32, 64} {
		b.Run(fmt.Sprintf("trials=%d", trials), func(b *testing.B) {
			allocs, cnodes := placementShape(trials)
			c := new(placement.Controller)
			c.Reset(8)
			if _, err := c.Update(allocs, cnodes); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				allocs[i%(2*trials)], allocs[(i+trials)%(2*trials)] = -1, 4
				if _, err := c.Update(allocs, cnodes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistSample measures the straggler latency draw on the
// executor's per-iteration path.
func BenchmarkDistSample(b *testing.B) {
	m := model.ResNet50()
	d := m.IterLatencyDist(512, 4, 1)
	rng := stats.NewRNG(3)
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += d.Sample(rng)
	}
	_ = sink
}
