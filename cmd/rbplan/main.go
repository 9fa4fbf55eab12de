// Command rbplan compiles resource allocation plans without executing
// them, printing each policy's plan and predicted JCT/cost side by side —
// useful for exploring how the planner responds to deadlines, pricing and
// model scaling.
//
// Usage:
//
//	rbplan -model resnet101 -deadline 20m
//	rbplan -model resnet50 -trials 64 -min-iters 4 -max-iters 508 -eta 2 -deadline 15m
//	rbplan -model resnet101 -deadline 20m -replan -drift 2.0
//
// With -replan, rbplan additionally demonstrates the online replanning
// controller: it pretends the RubberBand plan's first stage runs -drift
// times slower than profiled, feeds the controller the drifted
// observations, and prints the resulting replan decision (the spliced
// plan and its re-estimated JCT/cost against the remaining deadline).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/replan"
	"repro/internal/searchspace"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/vclock"
)

func main() {
	var (
		modelName = flag.String("model", "resnet101", "model to tune: resnet50, resnet101, resnet152, bert")
		deadline  = flag.Duration("deadline", 20*time.Minute, "job time constraint")
		trials    = flag.Int("trials", 32, "SHA initial trial count n")
		minIters  = flag.Int("min-iters", 1, "SHA minimum per-trial work r")
		maxIters  = flag.Int("max-iters", 50, "SHA maximum cumulative work R")
		eta       = flag.Int("eta", 3, "SHA termination rate η")
		seed      = flag.Uint64("seed", 1, "random seed")
		samples   = flag.Int("samples", 20, "simulator Monte-Carlo samples per plan")
		workers   = flag.Int("workers", 0, "planning concurrency: Monte-Carlo and candidate-evaluation workers (0 = GOMAXPROCS, 1 = serial; output is identical at any setting)")
		breakdown = flag.Bool("breakdown", false, "print the RubberBand plan's per-stage time/cost decomposition")
		estimator = flag.String("estimator", "segment", "plan estimator: segment (incremental Monte-Carlo, cached stage segments) or analytic (moment propagation, no sampling; falls back to segment on heavy-tailed latencies)")
		replanOn  = flag.Bool("replan", false, "demo the online replanning controller against an injected slowdown")
		drift     = flag.Float64("drift", 2.0, "observed/predicted latency ratio the replan demo injects")
		threshold = flag.Float64("drift-threshold", 0.25, "replan controller EWMA trigger threshold")
	)
	flag.Parse()

	mode, err := sim.ParseEstimator(*estimator)
	if err != nil {
		fatal(err)
	}
	m, err := model.ByName(*modelName)
	if err != nil {
		fatal(err)
	}
	sha, err := spec.SHA(spec.SHAParams{N: *trials, R: *minIters, MaxR: *maxIters, Eta: *eta})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("spec %v, deadline %v, model %s\n\n", sha, *deadline, m.Name)
	fmt.Printf("%-14s %-28s %-10s %-10s\n", "policy", "plan (GPUs per stage)", "JCT (s)", "cost ($)")

	for _, policy := range []core.Policy{core.PolicyStatic, core.PolicyNaiveElastic, core.PolicyRubberBand} {
		exp := &core.Experiment{
			Model:     m,
			Space:     searchspace.DefaultVisionSpace(),
			Spec:      sha,
			Deadline:  *deadline,
			Policy:    policy,
			Seed:      *seed,
			Samples:   *samples,
			Workers:   *workers,
			Estimator: mode,
		}
		res, _, err := exp.Plan()
		if err != nil {
			if err == planner.ErrInfeasible {
				fmt.Printf("%-14s %-28s\n", policy, "infeasible within resource cap")
				continue
			}
			fatal(err)
		}
		fmt.Printf("%-14s %-28s %-10.0f %-10.2f\n",
			policy, res.Plan.String(), res.Estimate.JCT, res.Estimate.Cost)

		if *breakdown && policy == core.PolicyRubberBand {
			printBreakdown(m, sha, *seed, *samples, *workers, mode, res.Plan)
		}
		if *replanOn && policy == core.PolicyRubberBand {
			printReplanDemo(m, sha, *seed, *samples, mode, res.Plan,
				(*deadline).Seconds(), *drift, *threshold)
		}
	}
}

// printReplanDemo drives the online replanning controller through one
// drift episode: it feeds observations *factor* slower than the profile
// predicts for the plan's first-stage allocation, then asks for a replan
// of the remaining stages a quarter of the way into the deadline.
func printReplanDemo(m *model.Model, sha *spec.ExperimentSpec, seed uint64, samples int, mode sim.EstimatorMode, plan sim.Plan, deadline, factor, threshold float64) {
	cp := sim.DefaultCloudProfile()
	cp.DatasetGB = m.Dataset.SizeGB
	prof := sim.ModelTrainProfile{Model: m, Batch: m.BaseBatch, GPUsPerNode: cp.Instance.GPUs}
	maxGPUs := 4 * sha.TotalTrials()
	if maxGPUs < 64 {
		maxGPUs = 64
	}
	ctl, err := replan.NewController(replan.Config{
		Spec:      sha,
		Profile:   prof,
		Cloud:     cp,
		Deadline:  deadline,
		MaxGPUs:   maxGPUs,
		Samples:   samples,
		Workers:   1,
		Estimator: mode,
		RNG:       stats.NewRNG(seed + 2),
		Threshold: threshold,
	})
	if err != nil {
		fatal(err)
	}
	gpus := sim.GPUsPerTrial(plan.Alloc[0], sha.Stage(0).Trials)
	pred := prof.IterDist(gpus).Mean()
	now := 0.25 * deadline
	fired := false
	for i := 0; i < 16 && !fired; i++ {
		fired = ctl.ObserveIteration(gpus, factor*pred, vclock.Time(now)+vclock.Time(i))
	}
	fmt.Printf("\nreplan demo: %gx drift on stage 0 (%d GPUs/trial, predicted %.2fs/iter)\n",
		factor, gpus, pred)
	if !fired {
		fmt.Printf("drift below threshold %.2f — controller stays quiet, plan unchanged\n", threshold)
		return
	}
	d, err := ctl.Replan(replan.State{
		Stage:          0,
		Now:            vclock.Time(now),
		RemainingIters: sha.Stage(0).Iters,
		Plan:           plan,
	}, replan.ReasonDrift)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("decision: %s\n", d.Note())
	fmt.Printf("%-10s %-28s %-10s %-10s\n", "", "plan (GPUs per stage)", "JCT (s)", "cost ($)")
	fmt.Printf("%-10s %-28s %-10.0f %-10.2f\n", "stale", d.OldPlan.String(), d.StaleEstimate.JCT, d.StaleEstimate.Cost)
	fmt.Printf("%-10s %-28s %-10.0f %-10.2f\n", "replanned", d.NewPlan.String(), d.NewEstimate.JCT, d.NewEstimate.Cost)
	fmt.Printf("remaining deadline %.0fs, adopted=%v, infeasible=%v\n",
		d.RemainingDeadline, d.Adopted, d.Infeasible)
}

// printBreakdown re-simulates the chosen plan and prints its per-stage
// decomposition.
func printBreakdown(m *model.Model, sha *spec.ExperimentSpec, seed uint64, samples, workers int, mode sim.EstimatorMode, plan sim.Plan) {
	cp := sim.DefaultCloudProfile()
	cp.DatasetGB = m.Dataset.SizeGB
	prof := sim.ModelTrainProfile{Model: m, Batch: m.BaseBatch, GPUsPerNode: cp.Instance.GPUs}
	sm, err := sim.New(sha, prof, cp, samples, stats.NewRNG(seed+1), sim.WithWorkers(workers), sim.WithEstimator(mode))
	if err != nil {
		fatal(err)
	}
	rows, err := sm.Breakdown(plan)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\n%-7s %-7s %-11s %-10s %-12s %-10s\n",
		"stage", "trials", "GPUs/trial", "machines", "duration (s)", "cost ($)")
	for _, r := range rows {
		fmt.Printf("%-7d %-7d %-11d %-10d %-12.0f %-10.2f\n",
			r.Stage, r.Trials, r.GPUsPerTrial, r.Instances, r.Duration, r.Cost)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rbplan:", err)
	os.Exit(1)
}
