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
	"runtime"
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
	return experiments.Config{Seed: 1, Seeds: 2, Samples: 5, Fast: true}
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

func benchSimulator(b *testing.B, samples int) *sim.Simulator {
	return benchSimulatorMode(b, samples, 0, sim.EstimatorSegment) // 0 = GOMAXPROCS
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

// benchSimulatorMode builds the benchmark workload's simulator with an
// explicit estimator mode.
func benchSimulatorMode(b *testing.B, samples, workers int, mode sim.EstimatorMode) *sim.Simulator {
	b.Helper()
	sm := new(sim.Simulator)
	initBenchSimulator(b, sm, samples, workers, mode)
	return sm
}

// initBenchSimulator initialises sm in place as the Simulator
// benchSimulatorMode returns for the same arguments.
func initBenchSimulator(b *testing.B, sm *sim.Simulator, samples, workers int, mode sim.EstimatorMode) {
	b.Helper()
	s, prof, cp := benchWorkload()
	if err := sm.Init(s, prof, cp, samples, stats.NewRNG(1), sim.WithWorkers(workers), sim.WithEstimator(mode)); err != nil {
		b.Fatal(err)
	}
}

// benchWorkerCounts returns the worker counts the parallel benchmarks
// sweep: serial, and GOMAXPROCS when it adds parallelism.
func benchWorkerCounts() []int {
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	return counts
}

// BenchmarkSimEstimate measures one repeated plan evaluation per
// estimator mode: a hit in the Simulator's plan memo, which is how a
// search meets a candidate it has already scored.
func BenchmarkSimEstimate(b *testing.B) {
	for _, mode := range benchEstimatorModes() {
		b.Run(fmt.Sprintf("estimator=%v", mode), func(b *testing.B) {
			sm := benchSimulatorMode(b, 20, 1, mode)
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
		})
	}
}

// BenchmarkPlanStatic measures the warm-start enumeration.
func BenchmarkPlanStatic(b *testing.B) {
	p := &planner.Planner{Sim: benchSimulator(b, 5), Deadline: 900, MaxGPUs: 128}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.PlanStatic(); err != nil {
			b.Fatal(err)
		}
	}
	reportSearchWork(b, p)
}

// reportSearchWork reports p's Monte-Carlo work per search: the plan
// estimates it requested (memo hits included) and the candidates its
// analytic screen kept from Monte-Carlo estimation.
func reportSearchWork(b *testing.B, p *planner.Planner) {
	b.ReportMetric(float64(p.EstimateCalls())/float64(b.N), "estimates/op")
	b.ReportMetric(float64(p.PrunedCandidates())/float64(b.N), "pruned/op")
}

// BenchmarkPlanElastic measures a full greedy plan compilation
// (Algorithm 2 with multi-warm-start).
func BenchmarkPlanElastic(b *testing.B) {
	p := &planner.Planner{Sim: benchSimulator(b, 5), Deadline: 900, MaxGPUs: 128}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.PlanElastic(); err != nil {
			b.Fatal(err)
		}
	}
	reportSearchWork(b, p)
}

// BenchmarkSimEstimateWorkers measures the Monte-Carlo fan-out at a
// planning-heavy sample count across worker counts; the estimate is
// bit-identical at every setting, only wall-clock changes. Each
// iteration re-initialises the Simulator first, so every estimate
// builds and samples its segments anew on the kept table's storage.
func BenchmarkSimEstimateWorkers(b *testing.B) {
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("samples=200/workers=%d", w), func(b *testing.B) {
			sm := benchSimulatorMode(b, 200, w, sim.EstimatorSegment)
			plan := sim.Uniform(32, sm.Spec().NumStages())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				initBenchSimulator(b, sm, 200, w, sim.EstimatorSegment)
				if _, err := sm.Estimate(plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanElastic100 measures a full greedy compilation at
// samples=100 on a shared Simulator, a fresh Planner per iteration.
// The Simulator's segment table and plan memo stay warm across
// iterations; BenchmarkPlanElastic100Cold and
// BenchmarkPlanElasticLifecycle measure cold compilations.
func BenchmarkPlanElastic100(b *testing.B) {
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			sm := benchSimulatorMode(b, 100, w, sim.EstimatorSegment)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := &planner.Planner{Sim: sm, Deadline: 900, MaxGPUs: 128, Workers: w}
				if _, err := p.PlanElastic(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchEstimatorModes() []sim.EstimatorMode {
	return []sim.EstimatorMode{sim.EstimatorSegment, sim.EstimatorAnalytic}
}

// BenchmarkPlanElastic100Estimator compares the estimator modes on the
// speedup-claim configuration (samples=100, workers=1, shared simulator).
// Both modes' caches, the plan memo among them, stay warm across
// iterations, mirroring how a long-lived simulator serves successive
// plan compilations.
func BenchmarkPlanElastic100Estimator(b *testing.B) {
	for _, mode := range benchEstimatorModes() {
		b.Run(fmt.Sprintf("estimator=%v", mode), func(b *testing.B) {
			sm := benchSimulatorMode(b, 100, 1, mode)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := &planner.Planner{Sim: sm, Deadline: 900, MaxGPUs: 128, Workers: 1}
				if _, err := p.PlanElastic(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanElastic100Cold rebuilds the Simulator every iteration, so
// every segment is compiled and sampled from scratch — the honest
// cold-start cost of one plan compilation, with no cross-iteration cache
// reuse.
func BenchmarkPlanElastic100Cold(b *testing.B) {
	for _, mode := range benchEstimatorModes() {
		b.Run(fmt.Sprintf("estimator=%v", mode), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sm := benchSimulatorMode(b, 100, 1, mode)
				p := &planner.Planner{Sim: sm, Deadline: 900, MaxGPUs: 128, Workers: 1}
				if _, err := p.PlanElastic(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanElasticLifecycle measures the kept Simulator of the
// replanner and the harness: Init, then one cold PlanElastic. From the
// second iteration on, each search fills the table the previous one
// filled, emptied by Init.
func BenchmarkPlanElasticLifecycle(b *testing.B) {
	for _, mode := range benchEstimatorModes() {
		b.Run(fmt.Sprintf("estimator=%v", mode), func(b *testing.B) {
			b.ReportAllocs()
			var sm sim.Simulator
			for i := 0; i < b.N; i++ {
				initBenchSimulator(b, &sm, 20, 1, mode)
				p := &planner.Planner{Sim: &sm, Deadline: 900, MaxGPUs: 128, Workers: 1}
				if _, err := p.PlanElastic(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchController builds a replanning controller over the benchmark
// workload and feeds it a drifted observation window (iterations 1.5x
// slower than predicted), so each Replan call exercises the full warm
// path: profile refit, tail re-plan under the remaining deadline, and
// splice. reset initialises the controller again and feeds it the same
// window, so the next decision is its first again.
func benchController(b *testing.B, samples int, mode sim.EstimatorMode) (ctl *replan.Controller, state replan.State, reset func()) {
	b.Helper()
	s, prof, cp := benchWorkload()
	cfg := replan.Config{
		Spec:      s,
		Profile:   prof,
		Cloud:     cp,
		Deadline:  900,
		MaxGPUs:   128,
		Samples:   samples,
		Estimator: mode,
		RNG:       stats.NewRNG(2),
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

// BenchmarkReplan measures one warm online replanning decision per
// estimator mode: the controller's first decision after it is reset
// and fed its observations again outside the timer, so every iteration
// takes the same decision on recycled storage.
func BenchmarkReplan(b *testing.B) {
	for _, mode := range benchEstimatorModes() {
		b.Run(fmt.Sprintf("estimator=%v", mode), func(b *testing.B) {
			ctl, state, reset := benchController(b, 100, mode)
			// Warm the controller and the package pools until their
			// storage holds the decision: the tables the decision's
			// Simulators draw reach their sizes over a few decisions.
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
		})
	}
}

// BenchmarkReplanPreScreen measures one read-only analytic drift screen:
// refit, stale-tail rescore and analytic mini-plan.
func BenchmarkReplanPreScreen(b *testing.B) {
	ctl, state, _ := benchController(b, 20, sim.EstimatorAnalytic)
	if _, err := ctl.PreScreen(state); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctl.PreScreen(state); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanFrontier measures one warm analytic score of a
// 128-candidate uniform frontier — the planner's phase-one workload.
func BenchmarkPlanFrontier(b *testing.B) {
	const frontier = 128
	sm := benchSimulatorMode(b, 20, 1, sim.EstimatorAnalytic)
	plans := make([]sim.Plan, frontier)
	for g := 1; g <= frontier; g++ {
		plans[g-1] = sim.Uniform(g, sm.Spec().NumStages())
	}
	eval := sm.NewAnalyticEval()
	score := func() {
		for _, p := range plans {
			if _, _, err := eval.Estimate(p); err != nil {
				b.Fatal(err)
			}
		}
	}
	score() // fill the segment table
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		score()
	}
}

// placementShape is 32 trials of 4 GPUs over 16 nodes of 8 GPUs, as an
// allocation column of 64 trials whose first 32 are live.
func placementShape() ([]int32, []*cluster.Node) {
	cnodes := make([]*cluster.Node, 16)
	for i := range cnodes {
		cnodes[i] = &cluster.Node{ID: cluster.NodeID(i), GPUs: 8}
	}
	allocs := make([]int32, 64)
	for i := range allocs {
		allocs[i] = -1
		if i < 32 {
			allocs[i] = 4
		}
	}
	return allocs, cnodes
}

// BenchmarkPlacementUpdate measures one cold placement epoch: 32 trials
// placed across 16 nodes by a fresh controller (Algorithm 3).
func BenchmarkPlacementUpdate(b *testing.B) {
	allocs, cnodes := placementShape()
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
// a warm queue hand-off on the same shape: one trial leaves its slot and
// a queued trial of the same size joins.
func BenchmarkPlacementHandoff(b *testing.B) {
	allocs, cnodes := placementShape()
	c := new(placement.Controller)
	c.Reset(8)
	if _, err := c.Update(allocs, cnodes); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		allocs[i%64], allocs[(i+32)%64] = -1, 4
		if _, err := c.Update(allocs, cnodes); err != nil {
			b.Fatal(err)
		}
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
