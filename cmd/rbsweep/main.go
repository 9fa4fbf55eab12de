// Command rbsweep sweeps the job deadline and prints the predicted
// cost/JCT frontier for the static and RubberBand policies — an ad hoc
// version of the paper's Figure 12 panels for any model/spec, suitable
// for piping into a plotting tool with -format csv.
//
// Usage:
//
//	rbsweep -model resnet50 -trials 64 -min-iters 4 -max-iters 508 -from 10m -to 40m -steps 7
//	rbsweep -model resnet101 -format csv > frontier.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/searchspace"
	"repro/internal/sim"
	"repro/internal/spec"
)

func main() {
	var (
		modelName = flag.String("model", "resnet50", "model to tune: resnet50, resnet101, resnet152, bert")
		trials    = flag.Int("trials", 64, "SHA initial trial count n")
		minIters  = flag.Int("min-iters", 4, "SHA minimum per-trial work r")
		maxIters  = flag.Int("max-iters", 508, "SHA maximum cumulative work R")
		eta       = flag.Int("eta", 2, "SHA termination rate η")
		from      = flag.Duration("from", 10*time.Minute, "tightest deadline")
		to        = flag.Duration("to", 40*time.Minute, "laxest deadline")
		steps     = flag.Int("steps", 7, "number of sweep points (inclusive of both ends)")
		seed      = flag.Uint64("seed", 1, "random seed")
		samples   = flag.Int("samples", 10, "simulator Monte-Carlo samples per plan")
		workers   = flag.Int("workers", 0, "planning concurrency: Monte-Carlo and candidate-evaluation workers (0 = GOMAXPROCS, 1 = serial; output is identical at any setting)")
		format    = flag.String("format", "text", "output format: text or csv")
		estimator = flag.String("estimator", "segment", "plan estimator: segment (incremental Monte-Carlo, cached stage segments) or analytic (moment propagation, no sampling; falls back to segment on heavy-tailed latencies)")
	)
	flag.Parse()
	mode, err := sim.ParseEstimator(*estimator)
	if err != nil {
		fatal(err)
	}
	if *steps < 2 {
		fatal(fmt.Errorf("need at least 2 steps"))
	}
	if *to <= *from {
		fatal(fmt.Errorf("-to must exceed -from"))
	}

	m, err := model.ByName(*modelName)
	if err != nil {
		fatal(err)
	}
	sha, err := spec.SHA(spec.SHAParams{N: *trials, R: *minIters, MaxR: *maxIters, Eta: *eta})
	if err != nil {
		fatal(err)
	}

	switch *format {
	case "csv":
		fmt.Println("deadline_s,static_cost,static_jct,elastic_cost,elastic_jct,saving_pct")
	case "text":
		fmt.Printf("model %s, spec %v\n\n", m.Name, sha)
		fmt.Printf("%-10s %-24s %-24s %-8s\n", "deadline", "static (cost, JCT)", "RubberBand (cost, JCT)", "saving")
	default:
		fatal(fmt.Errorf("unknown format %q", *format))
	}

	step := (*to - *from) / time.Duration(*steps-1)
	for i := 0; i < *steps; i++ {
		deadline := *from + time.Duration(i)*step
		exp := &core.Experiment{
			Model:     m,
			Space:     searchspace.DefaultVisionSpace(),
			Spec:      sha,
			Deadline:  deadline,
			Seed:      *seed,
			Samples:   *samples,
			Workers:   *workers,
			Estimator: mode,
		}
		exp.Policy = core.PolicyStatic
		st, _, err := exp.Plan()
		if err == planner.ErrInfeasible {
			printInfeasible(*format, deadline)
			continue
		} else if err != nil {
			fatal(err)
		}
		exp.Policy = core.PolicyRubberBand
		el, _, err := exp.Plan()
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

func printInfeasible(format string, deadline time.Duration) {
	if format == "csv" {
		fmt.Printf("%.0f,,,,,\n", deadline.Seconds())
		return
	}
	fmt.Printf("%-10s infeasible within resource cap\n", deadline)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rbsweep:", err)
	os.Exit(1)
}
