package executor

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cloud"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/trial"
)

// wsJob is one job of the workspace tests: its structure, plan, fault
// model, placement mode and seed.
type wsJob struct {
	s       *spec.ExperimentSpec
	plan    sim.Plan
	faults  cloud.FaultModel
	scatter bool
	seed    uint64
}

// runOn runs j to completion on w and renders everything it decided:
// the result's figures, schedule, winner and final plan, and the event
// log with its notes.
func runOn(t *testing.T, w *Workspace, j wsJob) (string, *Result) {
	t.Helper()
	h := faultHarness(t, j.faults, 3, j.seed)
	cfg := runConfig(t, h, j.s, j.plan, quietModel(), j.seed)
	cfg.Trace = trace.New()
	cfg.DisablePlacement = j.scatter
	job, err := w.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.clock.RunUntil(job.Done)
	res, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := cfg.Trace.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("jct=%v cost=%v util=%v preempt=%d best=%d/%v schedule=%+v final=%v\n%s",
		res.JCT, res.Cost, res.Utilization, res.Preemptions, res.BestTrial, res.BestAccuracy,
		res.Schedule, res.FinalPlan, csv.String()), res
}

// TestWorkspaceReuseMatchesFresh: a job started on a workspace that a
// larger or a smaller job finished on, after Reset, runs exactly as on a
// new workspace, and the trials DetachTrials gave to a result survive
// the next job on the workspace.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	jobs := []wsJob{
		{s: spec.MustSHA(16, 1, 8, 2), plan: sim.NewPlan(16, 8, 8, 4), faults: cloud.FaultModel{PreemptionMeanSeconds: 60}, seed: 31},
		{s: spec.MustSHA(4, 1, 2, 2), plan: sim.NewPlan(2, 2), seed: 32},
		{s: spec.MustSHA(8, 2, 8, 2), plan: sim.NewPlan(4, 4, 2), faults: cloud.FaultModel{ProvisionFailureProb: 0.3}, scatter: true, seed: 33},
		{s: spec.MustSHA(8, 1, 4, 2), plan: sim.NewPlan(16, 8, 4), seed: 34},
	}
	preempted := false
	for i, j := range jobs {
		want, res := runOn(t, new(Workspace), j)
		preempted = preempted || res.Preemptions > 0
		for k, prev := range jobs {
			w := new(Workspace)
			_, pres := runOn(t, w, prev)
			before := fmt.Sprint(trialStates(pres.Trials))
			w.DetachTrials()
			w.Reset()
			if got, _ := runOn(t, w, j); got != want {
				t.Errorf("job %d after job %d differs from job %d on a new workspace:\n%s\nwant\n%s", i, k, i, got, want)
			}
			if after := fmt.Sprint(trialStates(pres.Trials)); after != before {
				t.Errorf("job %d's detached trials changed when job %d reused the workspace", k, i)
			}
		}
	}
	if !preempted {
		t.Error("no job lost a node to preemption")
	}
	// Without DetachTrials the next job carves its trials from the same
	// block, and still runs as on a new workspace.
	w := new(Workspace)
	for i, j := range jobs {
		want, _ := runOn(t, new(Workspace), j)
		if got, _ := runOn(t, w, j); got != want {
			t.Errorf("job %d as job %d of a chain differs from a new workspace's", i, i)
		}
		w.Reset()
	}
}

// trialStates renders each trial's state, progress and latest accuracy.
func trialStates(ts []*trial.Trial) []string {
	out := make([]string, len(ts))
	for i, tr := range ts {
		acc, _ := tr.LatestAccuracy()
		out[i] = fmt.Sprintf("%d:%v:%d:%v", tr.ID(), tr.State(), tr.CumIters(), acc)
	}
	return out
}
