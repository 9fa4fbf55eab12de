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
//	rubberband -config job.json    (job.json: an rbserve POST body without the tenant)
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

	"repro/internal/harness"
	"repro/internal/planner"
	"repro/internal/serve"
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

// jobFlags defines the job flags on fs: the model, the Successive
// Halving shorthand (-trials, -min-iters, -max-iters, -eta) and the
// seed. It returns the submission the flags fill, for the caller to add flags of its own to, and the
// function that, once fs is parsed, builds its scenario under a
// deadline. The job runs on the paper's cloud profile: p3.8xlarge
// workers, a 60 s minimum charge, an exponential 10 s queue, a 15 s init
// and a 2 s restore.
func jobFlags(fs *flag.FlagSet, model string, sha spec.SHAParams) (*serve.Submission, func(time.Duration) (harness.Scenario, error)) {
	minCharge, restore := 60.0, 2.0
	sub := serve.Submission{
		Instance:       "p3.8xlarge",
		RestoreSeconds: &restore,
		Cloud: &serve.CloudSpec{
			MinChargeSeconds: &minCharge,
			QueueDelay:       &serve.DistSpec{Type: "exponential", Mean: 10},
			InitLatency:      &serve.DistSpec{Type: "deterministic", Value: 15},
		},
	}
	fs.StringVar(&sub.Model, "model", model, "model to tune: resnet50, resnet101, resnet152, bert")
	fs.IntVar(&sha.N, "trials", sha.N, "SHA initial trial count n")
	fs.IntVar(&sha.R, "min-iters", sha.R, "SHA minimum per-trial work r")
	fs.IntVar(&sha.MaxR, "max-iters", sha.MaxR, "SHA maximum cumulative work R")
	fs.IntVar(&sha.Eta, "eta", sha.Eta, "SHA termination rate η")
	fs.Uint64Var(&sub.Seed, "seed", 1, "random seed")
	return &sub, func(deadline time.Duration) (harness.Scenario, error) {
		sp, err := spec.SHA(sha)
		if err != nil {
			return harness.Scenario{}, err
		}
		sub.Deadline = deadline.String()
		for i := range sp.NumStages() {
			st := sp.Stage(i)
			sub.Stages = append(sub.Stages, [2]int{st.Trials, st.Iters})
		}
		return serve.BuildScenario(sub)
	}
}

// paperSHA is the paper's Table 2 job, the default of run and plan.
var paperSHA = spec.SHAParams{N: 32, R: 1, MaxR: 50, Eta: 3}

// run plans and executes one job.
func run(args []string) {
	fs := flag.NewFlagSet("rubberband run", flag.ExitOnError)
	sub, scenario := jobFlags(fs, "resnet101", paperSHA)
	fs.StringVar(&sub.Policy, "policy", "rubberband", "allocation policy: rubberband, static, naive")
	fs.BoolVar(&sub.UseProfiler, "profile", false, "plan from a measured scaling profile (instrumentation step)")
	var (
		deadline  = fs.Duration("deadline", 20*time.Minute, "job time constraint")
		tracePath = fs.String("trace", "", "write the execution event trace as CSV to this path")
		cfgPath   = fs.String("config", "", "load the experiment from a JSON job file, a POST /v1/experiments body without the tenant (overrides the other job flags)")
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
		sc, err = readJob(*cfgPath)
	} else {
		sc, err = scenario(*deadline)
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

// readJob decodes the job file at path and builds its scenario.
func readJob(path string) (harness.Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return harness.Scenario{}, err
	}
	defer f.Close()
	sub, err := serve.DecodeSubmission(f)
	if err != nil {
		return harness.Scenario{}, fmt.Errorf("%s: %w", path, err)
	}
	return serve.BuildScenario(sub)
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
