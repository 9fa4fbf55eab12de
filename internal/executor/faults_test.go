package executor

import (
	"repro/internal/stats"
	"repro/internal/vclock"
	"testing"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/searchspace"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/trial"
)

// faultHarness builds a harness whose provider injects the given faults
// and restores checkpoints in restore seconds.
func faultHarness(t *testing.T, faults cloud.FaultModel, restore float64, seed uint64) *harness {
	t.Helper()
	prof := testProfile(t, "p3.8xlarge", 2, 5)
	prof.Faults, prof.RestoreSeconds = faults, restore
	return newHarnessProfile(t, prof, seed)
}

func TestProvisionFailuresRetried(t *testing.T) {
	h := faultHarness(t, cloud.FaultModel{ProvisionFailureProb: 0.4}, 0, 21)
	s := spec.MustSHA(8, 2, 8, 2)
	res, err := Run(runConfig(t, h, s, sim.Uniform(8, s.NumStages()), quietModel(), 21))
	if err != nil {
		t.Fatal(err)
	}
	if res.BestTrial < 0 {
		t.Fatal("job did not complete")
	}
	if h.provider.ProvisionFailures() == 0 {
		t.Fatal("fault injection produced no failures (seed too lucky; adjust)")
	}
	if h.cluster.Retries() != h.provider.ProvisionFailures() {
		t.Fatalf("retries %d != failures %d", h.cluster.Retries(), h.provider.ProvisionFailures())
	}
	// Failed requests were never billed.
	for _, in := range h.provider.Instances() {
		if in.State == cloud.Failed && in.BilledLifetime(h.clock.Now()) != 0 {
			t.Fatalf("failed instance %d billed", in.ID)
		}
	}
}

func TestPreemptionRecovery(t *testing.T) {
	// Aggressive preemption: mean time-to-preempt well inside the job's
	// runtime, so several nodes are lost mid-stage. The job must still
	// complete with the correct tournament structure.
	h := faultHarness(t, cloud.FaultModel{PreemptionMeanSeconds: 400}, 3, 22)
	s := spec.MustSHA(8, 2, 16, 2)
	m := quietModel()
	cfg := runConfig(t, h, s, sim.Uniform(8, s.NumStages()), m, 22)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Preemptions == 0 {
		t.Fatal("no preemptions occurred (seed too lucky; adjust mean)")
	}
	// Tournament structure intact.
	completed := 0
	for _, tr := range res.Trials {
		if tr.State() == trial.Completed {
			completed++
		}
	}
	if completed != 1 {
		t.Fatalf("completed = %d, want 1", completed)
	}
	// The winner still trained the full budget despite restarts.
	if got := res.Trials[int(res.BestTrial)].CumIters(); got != s.MaxIters() {
		t.Fatalf("winner trained %d iters, want %d", got, s.MaxIters())
	}
}

func TestPreemptionCostsTime(t *testing.T) {
	// The same job with and without preemptions: recovery replays lost
	// work, so JCT must grow.
	s := spec.MustSHA(8, 2, 16, 2)
	run := func(preempt float64) *Result {
		h := faultHarness(t, cloud.FaultModel{PreemptionMeanSeconds: preempt}, 3, 23)
		m := quietModel()
		cfg := runConfig(t, h, s, sim.Uniform(8, s.NumStages()), m, 23)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run(0)
	faulty := run(300)
	if faulty.Preemptions == 0 {
		t.Fatal("no preemptions at mean 300s")
	}
	if faulty.JCT <= clean.JCT {
		t.Fatalf("preempted run (%v) not slower than clean run (%v)", faulty.JCT, clean.JCT)
	}
}

func TestPreemptionDeterministic(t *testing.T) {
	s := spec.MustSHA(8, 2, 8, 2)
	runOnce := func() *Result {
		h := faultHarness(t, cloud.FaultModel{PreemptionMeanSeconds: 350}, 0, 24)
		res, err := Run(runConfig(t, h, s, sim.Uniform(8, s.NumStages()), quietModel(), 24))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := runOnce(), runOnce()
	if a.JCT != b.JCT || a.Cost != b.Cost || a.Preemptions != b.Preemptions {
		t.Fatalf("nondeterministic under faults: (%v,%v,%d) vs (%v,%v,%d)",
			a.JCT, a.Cost, a.Preemptions, b.JCT, b.Cost, b.Preemptions)
	}
}

// TestFaultModelValidation: a provider refuses a cloud whose fault model
// is out of range, so no run starts on it.
func TestFaultModelValidation(t *testing.T) {
	for _, f := range []cloud.FaultModel{
		{ProvisionFailureProb: -0.1},
		{ProvisionFailureProb: 1.0},
		{PreemptionMeanSeconds: -1},
	} {
		prof := testProfile(t, "p3.8xlarge", 0, 0)
		prof.Faults = f
		if _, err := cloud.NewProvider(vclock.New(), stats.NewRNG(25), prof); err == nil {
			t.Errorf("invalid fault model accepted: %+v", f)
		}
	}
}

func TestTrialRestore(t *testing.T) {
	tr := new(trial.Trial)
	tr.Init(5, searchspace.Config{})
	if err := tr.Start(2, 1); err != nil {
		t.Fatal(err)
	}
	ck, _ := tr.Checkpoint() // at 0 iterations
	for i := 0; i < 3; i++ {
		_ = tr.RecordIteration(0.5, 0)
	}
	if err := tr.Restore(ck); err == nil {
		t.Fatal("Restore while running succeeded")
	}
	if err := tr.Preempt(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Restore(trial.Checkpoint{Trial: 9}); err == nil {
		t.Fatal("Restore from foreign checkpoint succeeded")
	}
	if err := tr.Restore(ck); err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.LatestAccuracy(); tr.CumIters() != 0 || ok {
		t.Fatalf("restore did not rewind: iters=%d, latest metric kept=%v", tr.CumIters(), ok)
	}
	// Cannot restore forward.
	if err := tr.Restore(trial.Checkpoint{Trial: 5, CumIters: 10}); err == nil {
		t.Fatal("forward restore succeeded")
	}
	// Resume and verify normal progress continues.
	if err := tr.Start(2, 1); err != nil {
		t.Fatal(err)
	}
	_ = tr.RecordIteration(0.4, 1)
	if tr.CumIters() != 1 {
		t.Fatalf("iters = %d after resume", tr.CumIters())
	}
}

// quietModel with faults: end-to-end through the core facade is covered
// in core tests; here verify the executor surfaces preemption counts in
// the model path too.
func TestPreemptionCountSurfaced(t *testing.T) {
	h := faultHarness(t, cloud.FaultModel{PreemptionMeanSeconds: 200}, 0, 26)
	s := spec.Empty().AddStage(4, 20)
	m := model.ResNet101()
	m.IterNoiseStd = 0.1
	res, err := Run(runConfig(t, h, s, sim.NewPlan(16), m, 26))
	if err != nil {
		t.Fatal(err)
	}
	if res.Preemptions != h.provider.Preemptions() {
		t.Fatalf("result preemptions %d != provider %d", res.Preemptions, h.provider.Preemptions())
	}
}
