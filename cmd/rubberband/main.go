// Command rubberband plans and executes hyperparameter tuning jobs on the
// simulated cloud. Every subcommand builds one harness scenario from the
// same job flags and runs it through the harness.
//
// Usage:
//
//	rubberband [run] [flags]   plan and execute one job, printing the plan,
//	                           the prediction and the realized JCT, cost,
//	                           schedule and winning configuration
//	rubberband plan [flags]    compile every policy's plan without executing
//	rubberband sweep [flags]   sweep the deadline and print the static and
//	                           RubberBand cost/JCT frontier
//
// Examples:
//
//	rubberband -model resnet101 -deadline 20m
//	rubberband -model bert -policy static -trials 16 -min-iters 1 -max-iters 30 -eta 3
//	rubberband -model resnet50 -deadline 15m -profile -trace trace.csv
//	rubberband plan -model resnet101 -deadline 20m -breakdown
//	rubberband plan -model resnet101 -deadline 20m -replan -drift 2.0
//	rubberband sweep -model resnet50 -from 10m -to 40m -steps 7 -format csv
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/searchspace"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/trace"
)

func main() {
	cmd, args := "run", os.Args[1:]
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	switch cmd {
	case "run":
		run(args)
	case "plan":
		planCmd(args)
	case "sweep":
		sweep(args)
	default:
		fatal(fmt.Errorf("unknown subcommand %q (want run, plan or sweep)", cmd))
	}
}

// job holds the flags that describe a tuning job: the model and its
// Successive Halving structure, the seed and the planner's simulator.
type job struct {
	model                           string
	trials, minIters, maxIters, eta int
	seed                            uint64
	samples                         int
	estimator                       string
}

// paperJob is the paper's Table 2 job, the default of run and plan.
var paperJob = job{model: "resnet101", trials: 32, minIters: 1, maxIters: 50, eta: 3, seed: 1, samples: 20, estimator: "segment"}

// flags defines the job flags on fs, with d's values as defaults, and
// returns the job they fill in.
func (d job) flags(fs *flag.FlagSet) *job {
	j := d
	fs.StringVar(&j.model, "model", d.model, "model to tune: resnet50, resnet101, resnet152, bert")
	fs.IntVar(&j.trials, "trials", d.trials, "SHA initial trial count n")
	fs.IntVar(&j.minIters, "min-iters", d.minIters, "SHA minimum per-trial work r")
	fs.IntVar(&j.maxIters, "max-iters", d.maxIters, "SHA maximum cumulative work R")
	fs.IntVar(&j.eta, "eta", d.eta, "SHA termination rate η")
	fs.Uint64Var(&j.seed, "seed", d.seed, "random seed")
	return &j
}

// simFlags adds the planner's simulator flags, which the subcommands
// that only plan expose; run plans with the defaults.
func (j *job) simFlags(fs *flag.FlagSet) *job {
	fs.IntVar(&j.samples, "samples", j.samples, "simulator Monte-Carlo samples per plan")
	fs.StringVar(&j.estimator, "estimator", j.estimator, "plan estimator: segment (incremental Monte-Carlo, cached stage segments) or analytic (moment propagation, no sampling; falls back to segment on heavy-tailed latencies)")
	return j
}

// scenario builds the job's scenario on the default cloud profile under
// a deadline of deadline.
func (j *job) scenario(deadline time.Duration) (harness.Scenario, error) {
	m, err := model.ByName(j.model)
	if err != nil {
		return harness.Scenario{}, err
	}
	sha, err := spec.SHA(spec.SHAParams{N: j.trials, R: j.minIters, MaxR: j.maxIters, Eta: j.eta})
	if err != nil {
		return harness.Scenario{}, err
	}
	mode, err := sim.ParseEstimator(j.estimator)
	if err != nil {
		return harness.Scenario{}, err
	}
	space := searchspace.DefaultVisionSpace()
	if m.Name == "bert" {
		space = searchspace.DefaultNLPSpace()
	}
	cp := sim.DefaultCloudProfile()
	cp.DatasetGB = m.Dataset.SizeGB
	return harness.Scenario{
		BatchSeed:      j.seed,
		Spec:           sha,
		Model:          m,
		Space:          space,
		Profile:        cp,
		RestoreSeconds: 2,
		Samples:        j.samples,
		Estimator:      mode,
		Deadline:       deadline.Seconds(),
	}, nil
}

// run plans and executes one job.
func run(args []string) {
	fs := flag.NewFlagSet("rubberband run", flag.ExitOnError)
	j := paperJob.flags(fs)
	var (
		deadline  = fs.Duration("deadline", 20*time.Minute, "job time constraint")
		policyStr = fs.String("policy", "rubberband", "allocation policy: rubberband, static, naive")
		profile   = fs.Bool("profile", false, "plan from a measured scaling profile (instrumentation step)")
		tracePath = fs.String("trace", "", "write the execution event trace as CSV to this path")
		cfgPath   = fs.String("config", "", "load the experiment from a JSON file (overrides the other job flags)")
		ganttPath = fs.String("gantt", "", "write per-trial activity spans as CSV to this path (for Gantt plots)")
		planStr   = fs.String("plan", "", "execute this explicit per-stage GPU allocation (e.g. \"16,10,12,4\") instead of planning")
		jsonOut   = fs.Bool("json", false, "emit the run result as JSON instead of text")
	)
	if err := fs.Parse(args); err != nil {
		fatal(err)
	}

	var (
		sc  harness.Scenario
		err error
	)
	if *cfgPath != "" {
		sc, err = config.Load(*cfgPath)
	} else if sc, err = j.scenario(*deadline); err == nil {
		sc.Policy, err = config.ParsePolicy(*policyStr)
		sc.UseProfiler = *profile
	}
	if err != nil {
		fatal(err)
	}
	if *planStr != "" {
		// Execute a user-supplied plan without invoking the planner.
		if sc.Plan, err = sim.ParsePlan(*planStr); err != nil {
			fatal(err)
		}
	}

	if !*jsonOut {
		fmt.Printf("job: %s on %s, spec %v, deadline %v, policy %v\n",
			sc.Model.Name, sc.Model.Dataset.Name, sc.Spec, time.Duration(sc.Deadline*float64(time.Second)), sc.Policy)
	}
	a, err := harness.RunScenario(sc)
	if err != nil {
		fatal(err)
	}
	if len(sc.Plan.Alloc) == 0 && !a.Planned {
		fatal(planner.ErrInfeasible)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonResult(a)); err != nil {
			fatal(err)
		}
	} else {
		printText(a)
	}

	if *tracePath != "" {
		writeFile(*tracePath, a.Recorder.WriteCSV)
		fmt.Printf("\ntrace: %d events written to %s\n", len(a.Recorder.Events()), *tracePath)
	}
	if *ganttPath != "" {
		spans := trace.TrialSpans(a.Recorder.Events())
		writeFile(*ganttPath, func(w io.Writer) error { return trace.WriteGanttCSV(w, spans) })
		fmt.Printf("gantt: %d spans written to %s\n", len(spans), *ganttPath)
	}
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := write(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

// printText writes the human-readable result.
func printText(a *harness.Artifacts) {
	if a.ProfilingDuration > 0 {
		fmt.Printf("profiling: %.0fs of instrumentation\n", a.ProfilingDuration)
	}
	fmt.Printf("plan: %v GPUs per stage\n", a.Plan)
	if a.Planned {
		fmt.Printf("predicted: JCT %.0fs, cost $%.2f\n", a.Estimate.JCT, a.Estimate.Cost)
	}
	res := a.Result
	fmt.Printf("realized:  JCT %.0fs, cost $%.2f, utilization %.0f%%\n",
		res.JCT, res.Cost, res.Utilization*100)
	if res.Preemptions > 0 {
		fmt.Printf("preemptions survived: %d\n", res.Preemptions)
	}
	fmt.Printf("winner: trial %d, accuracy %.1f%%, config %v\n",
		res.BestTrial, res.BestAccuracy*100, res.BestConfig)
	fmt.Println("\nrealized schedule:")
	fmt.Printf("%-12s %-7s %-11s %-7s %s\n", "iter range", "trials", "GPUs/trial", "nodes", "cost ($)")
	for _, row := range res.Schedule {
		fmt.Printf("%-12s %-7d %-11d %-7d %.2f\n",
			fmt.Sprintf("%d-%d", row.IterStart, row.IterEnd),
			row.Trials, row.GPUsPerTrial, row.ClusterNodes, row.Cost)
	}
}

// jsonResult shapes the result for machine consumption.
func jsonResult(a *harness.Artifacts) map[string]any {
	res := a.Result
	stages := make([]map[string]any, 0, len(res.Schedule))
	for _, row := range res.Schedule {
		stages = append(stages, map[string]any{
			"iter_start": row.IterStart, "iter_end": row.IterEnd,
			"trials": row.Trials, "gpus_per_trial": row.GPUsPerTrial,
			"nodes": row.ClusterNodes, "cost": row.Cost,
		})
	}
	return map[string]any{
		"policy":         a.Scenario.Policy.String(),
		"plan":           a.Plan.Alloc,
		"predicted_jct":  a.Estimate.JCT,
		"predicted_cost": a.Estimate.Cost,
		"jct":            res.JCT,
		"cost":           res.Cost,
		"utilization":    res.Utilization,
		"preemptions":    res.Preemptions,
		"best_trial":     res.BestTrial,
		"best_accuracy":  res.BestAccuracy,
		"best_config":    res.BestConfig,
		"schedule":       stages,
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rubberband:", err)
	os.Exit(1)
}
