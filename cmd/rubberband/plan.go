package main

import (
	"errors"
	"flag"
	"fmt"
	"time"

	"repro/internal/harness"
	"repro/internal/planner"
	"repro/internal/replan"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// planCmd compiles every policy's plan without executing it, printing
// each plan and its predicted JCT/cost side by side. With -replan it
// also demonstrates the online replanning controller: it pretends the
// RubberBand plan's first stage runs -drift times slower than profiled,
// feeds the controller the drifted observations, and prints the
// resulting decision (the spliced plan and its re-estimated JCT/cost
// against the remaining deadline).
func planCmd(args []string) {
	fs := flag.NewFlagSet("rubberband plan", flag.ExitOnError)
	j := paperJob.flags(fs).simFlags(fs)
	var (
		deadline  = fs.Duration("deadline", 20*time.Minute, "job time constraint")
		breakdown = fs.Bool("breakdown", false, "print the RubberBand plan's per-stage time/cost decomposition")
		replanOn  = fs.Bool("replan", false, "demo the online replanning controller against an injected slowdown")
		drift     = fs.Float64("drift", 2.0, "observed/predicted latency ratio the replan demo injects")
		threshold = fs.Float64("drift-threshold", 0.25, "replan controller EWMA trigger threshold")
	)
	if err := fs.Parse(args); err != nil {
		fatal(err)
	}
	sc, err := j.scenario(*deadline)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("spec %v, deadline %v, model %s\n\n", sc.Spec, *deadline, sc.Model.Name)
	fmt.Printf("%-14s %-28s %-10s %-10s\n", "policy", "plan (GPUs per stage)", "JCT (s)", "cost ($)")

	for _, policy := range []planner.Policy{planner.PolicyStatic, planner.PolicyNaiveElastic, planner.PolicyRubberBand} {
		sc.Policy = policy
		res, err := harness.PlanScenario(sc)
		if errors.Is(err, planner.ErrInfeasible) {
			fmt.Printf("%-14s %-28s\n", policy, "infeasible within resource cap")
			continue
		} else if err != nil {
			fatal(err)
		}
		fmt.Printf("%-14s %-28s %-10.0f %-10.2f\n",
			policy, res.Plan.String(), res.Estimate.JCT, res.Estimate.Cost)

		if *breakdown && policy == planner.PolicyRubberBand {
			printBreakdown(sc, res.Plan)
		}
		if *replanOn && policy == planner.PolicyRubberBand {
			printReplanDemo(sc, res.Plan, *drift, *threshold)
		}
	}
}

// printReplanDemo drives the online replanning controller through one
// drift episode: it feeds observations factor times slower than the
// scenario's profile predicts for the plan's first-stage allocation,
// then asks for a replan of the remaining stages a quarter of the way
// into the deadline.
func printReplanDemo(sc harness.Scenario, plan sim.Plan, factor, threshold float64) {
	prof := sim.ModelTrainProfile{Model: sc.Model, Batch: sc.Model.BaseBatch, GPUsPerNode: sc.Profile.Instance.GPUs}
	ctl, err := replan.NewController(replan.Config{
		Spec:      sc.Spec,
		Profile:   prof,
		Cloud:     sc.Profile,
		Deadline:  sc.Deadline,
		MaxGPUs:   planner.DefaultMaxGPUs(sc.Spec),
		Samples:   sc.Samples,
		Estimator: sc.Estimator,
		RNG:       stats.NewRNG(sc.BatchSeed),
		Threshold: threshold,
	})
	if err != nil {
		fatal(err)
	}
	gpus := sim.GPUsPerTrial(plan.Alloc[0], sc.Spec.Stage(0).Trials)
	pred := prof.IterDist(gpus).Mean()
	now := 0.25 * sc.Deadline
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
		RemainingIters: sc.Spec.Stage(0).Iters,
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

// printBreakdown prints the plan's per-stage decomposition on the
// simulator it was planned on.
func printBreakdown(sc harness.Scenario, plan sim.Plan) {
	rows, err := harness.Breakdown(sc, plan)
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

// sweep sweeps the job deadline and prints the predicted cost/JCT
// frontier of the static and RubberBand policies — an ad hoc version of
// the paper's Figure 12 panels for any model and spec, ready for a
// plotting tool with -format csv.
func sweep(args []string) {
	fs := flag.NewFlagSet("rubberband sweep", flag.ExitOnError)
	j := job{model: "resnet50", trials: 64, minIters: 4, maxIters: 508, eta: 2, seed: 1, samples: 10, estimator: "segment"}.flags(fs).simFlags(fs)
	var (
		from   = fs.Duration("from", 10*time.Minute, "tightest deadline")
		to     = fs.Duration("to", 40*time.Minute, "laxest deadline")
		steps  = fs.Int("steps", 7, "number of sweep points (inclusive of both ends)")
		format = fs.String("format", "text", "output format: text or csv")
	)
	if err := fs.Parse(args); err != nil {
		fatal(err)
	}
	if *steps < 2 {
		fatal(fmt.Errorf("need at least 2 steps"))
	}
	if *to <= *from {
		fatal(fmt.Errorf("-to must exceed -from"))
	}
	sc, err := j.scenario(*from)
	if err != nil {
		fatal(err)
	}

	switch *format {
	case "csv":
		fmt.Println("deadline_s,static_cost,static_jct,elastic_cost,elastic_jct,saving_pct")
	case "text":
		fmt.Printf("model %s, spec %v\n\n", sc.Model.Name, sc.Spec)
		fmt.Printf("%-10s %-24s %-24s %-8s\n", "deadline", "static (cost, JCT)", "RubberBand (cost, JCT)", "saving")
	default:
		fatal(fmt.Errorf("unknown format %q", *format))
	}

	step := (*to - *from) / time.Duration(*steps-1)
	for i := 0; i < *steps; i++ {
		deadline := *from + time.Duration(i)*step
		sc.Deadline = deadline.Seconds()
		sc.Policy = planner.PolicyStatic
		st, err := harness.PlanScenario(sc)
		if errors.Is(err, planner.ErrInfeasible) {
			if *format == "csv" {
				fmt.Printf("%.0f,,,,,\n", deadline.Seconds())
			} else {
				fmt.Printf("%-10s infeasible within resource cap\n", deadline)
			}
			continue
		} else if err != nil {
			fatal(err)
		}
		sc.Policy = planner.PolicyRubberBand
		el, err := harness.PlanScenario(sc)
		if err != nil {
			fatal(err)
		}
		saving := (1 - el.Estimate.Cost/st.Estimate.Cost) * 100
		if *format == "csv" {
			fmt.Printf("%.0f,%.4f,%.1f,%.4f,%.1f,%.2f\n",
				deadline.Seconds(), st.Estimate.Cost, st.Estimate.JCT,
				el.Estimate.Cost, el.Estimate.JCT, saving)
		} else {
			fmt.Printf("%-10s ($%6.2f, %5.0fs)%8s ($%6.2f, %5.0fs)%8s %5.1f%%\n",
				deadline, st.Estimate.Cost, st.Estimate.JCT, "",
				el.Estimate.Cost, el.Estimate.JCT, "", saving)
		}
	}
}
