package harness

import (
	"testing"

	"repro/internal/cloud"
	"repro/internal/replan"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestGenerateIsPure(t *testing.T) {
	for i := 0; i < 20; i++ {
		a, b := Generate(11, i), Generate(11, i)
		if a.String() != b.String() {
			t.Fatalf("scenario %d differs across generations:\n%s\n%s", i, a, b)
		}
	}
	if Generate(11, 0).String() == Generate(12, 0).String() {
		t.Fatal("different seeds produced identical scenarios")
	}
}

func TestBatchOraclesPass(t *testing.T) {
	rep := RunBatch(Options{Seed: 42, Scenarios: 60, Workers: 4, Replay: true})
	for i := range rep.Scenarios {
		r := rep.Scenarios[i]
		if !r.Failed() {
			continue
		}
		if r.Err != nil {
			t.Errorf("scenario %d aborted: %v\n  %s", i, r.Err, r.Scenario)
			continue
		}
		for _, v := range r.Violations {
			t.Errorf("scenario %d: %s\n  %s", i, v, r.Scenario)
		}
	}
}

// TestBatchDigestWorkerInvariance is the determinism regression test: the
// batch digest — a bit-level fingerprint of every event trace, result and
// billing ledger — must be identical when the batch is run twice in the
// same process and when the fan-out width changes.
func TestBatchDigestWorkerInvariance(t *testing.T) {
	first := RunBatch(Options{Seed: 9, Scenarios: 40, Workers: 1})
	again := RunBatch(Options{Seed: 9, Scenarios: 40, Workers: 1})
	wide := RunBatch(Options{Seed: 9, Scenarios: 40, Workers: 8})
	if first.BatchDigest != again.BatchDigest {
		t.Fatalf("same-process replay diverged: %016x vs %016x",
			uint64(first.BatchDigest), uint64(again.BatchDigest))
	}
	if first.BatchDigest != wide.BatchDigest {
		t.Fatalf("workers=1 and workers=8 diverged: %016x vs %016x",
			uint64(first.BatchDigest), uint64(wide.BatchDigest))
	}
	for i := range first.Scenarios {
		if first.Scenarios[i].Digest != wide.Scenarios[i].Digest {
			t.Fatalf("scenario %d digest differs across worker counts", i)
		}
	}
}

// cleanArtifacts returns a fault-free, planner-planned scenario run that
// passes every oracle, for the mutation tests to tamper with. Each call
// re-runs the scenario so mutations never leak between subtests.
func cleanArtifacts(t *testing.T) *Artifacts {
	t.Helper()
	for i := 0; i < 100; i++ {
		sc := Generate(7, i)
		if sc.Profile.Faults != (cloud.FaultModel{}) {
			continue
		}
		a, err := RunScenario(sc)
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		if !a.Planned {
			continue
		}
		if vs := CheckAll(a, DefaultOracles()); len(vs) != 0 {
			t.Fatalf("scenario %d not clean: %v", i, vs)
		}
		return a
	}
	t.Fatal("no clean planned fault-free scenario in the first 100 indices")
	return nil
}

// TestOraclesCatchMutations tampers with one artifact at a time and
// asserts the corresponding oracle fires — guarding the oracles
// themselves against silently passing everything.
func TestOraclesCatchMutations(t *testing.T) {
	cases := []struct {
		name   string
		oracle string
		mutate func(*Artifacts)
	}{
		{"inflated total cost", "cost-conservation", func(a *Artifacts) {
			a.Result.Cost += 1
		}},
		{"out-of-range utilization", "cost-conservation", func(a *Artifacts) {
			a.Result.Utilization = 1.5
		}},
		{"phantom busy time", "usage-metering", func(a *Artifacts) {
			a.Recorder.AddBusy(50)
		}},
		{"gang shape mismatch", "gang-integrity", func(a *Artifacts) {
			per := a.Result.Schedule[0].GPUsPerTrial
			a.Recorder.RecordGang(0, trace.KindTrialStart, 0, 0, per+1, 1)
		}},
		{"winner also killed", "no-lost-trials", func(a *Artifacts) {
			a.Recorder.Record(a.finishedAt(), trace.KindTrialKill, a.Scenario.Spec.NumStages()-1,
				int(a.Result.BestTrial), "tampered")
		}},
		{"estimate past deadline", "deadline", func(a *Artifacts) {
			a.Estimate.JCT = a.Deadline + 1
		}},
		{"stage trial count drift", "schedule-sanity", func(a *Artifacts) {
			a.Result.Schedule[0].Trials++
		}},
		{"phantom replan decision", "replan-consistency", func(a *Artifacts) {
			a.Result.Replans = append(a.Result.Replans, replan.Decision{
				Seq:     len(a.Result.Replans),
				Reason:  replan.ReasonDrift,
				OldPlan: a.Plan.Clone(),
				NewPlan: a.Plan.Clone(),
			})
		}},
		{"adopted tail past remaining deadline", "deadline", func(a *Artifacts) {
			a.Result.Replans = append(a.Result.Replans, replan.Decision{
				Seq:               len(a.Result.Replans),
				Reason:            replan.ReasonDrift,
				RemainingDeadline: 50,
				OldPlan:           a.Plan.Clone(),
				NewPlan:           a.Plan.Clone(),
				Adopted:           true,
				NewEstimate:       sim.Estimate{JCT: 100},
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := cleanArtifacts(t)
			tc.mutate(a)
			for _, v := range CheckAll(a, DefaultOracles()) {
				if v.Oracle == tc.oracle {
					return
				}
			}
			t.Fatalf("mutation not caught by the %s oracle", tc.oracle)
		})
	}
}

// TestHarnessCatchesScatterRegression pins the chaos scenario that
// exposed the scatter double-booking bug (seed=2 index=52: scatter mode,
// queue hand-offs, no faults) as an end-to-end regression.
func TestHarnessCatchesScatterRegression(t *testing.T) {
	sc := Generate(2, 52)
	if !sc.DisablePlacement {
		t.Fatalf("generator drifted: scenario no longer scatter-mode\n  %s", sc)
	}
	a, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if vs := CheckAll(a, DefaultOracles()); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
}

func TestPipelineErrorReported(t *testing.T) {
	// A scenario whose run aborts must surface an error, not pass.
	sc := Generate(1, 0)
	sc.Profile.Faults.ProvisionFailureProb = 2
	if _, err := RunScenario(sc); err == nil {
		t.Fatal("invalid fault model did not abort the run")
	}
}
