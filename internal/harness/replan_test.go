package harness

import (
	"reflect"
	"testing"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/searchspace"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
)

// driftScenario is the pinned replanning demo workload: four successive-
// halving stages of resnet152 on p3.8xlarge workers with deterministic
// latencies and overheads, a 32-GPU cap, and a 2x latency slowdown
// injected 15% of the way into the deadline. The planner's cost-minimal
// plan leaves enough slack headroom that replanning the tail up to the
// GPU cap recovers the deadline the stale plan misses.
func driftScenario(t *testing.T) Scenario {
	t.Helper()
	s, err := spec.New(
		spec.Stage{Trials: 4, Iters: 4},
		spec.Stage{Trials: 4, Iters: 4},
		spec.Stage{Trials: 2, Iters: 4},
		spec.Stage{Trials: 1, Iters: 8},
	)
	if err != nil {
		t.Fatal(err)
	}
	var m model.Model
	for _, z := range model.Zoo() {
		if z.Name == "resnet152" {
			m = *z
		}
	}
	if m.Name == "" {
		t.Fatal("resnet152 missing from the model zoo")
	}
	m.IterNoiseStd = 0
	it, err := cloud.DefaultCatalog().Lookup("p3.8xlarge")
	if err != nil {
		t.Fatal(err)
	}
	return Scenario{
		BatchSeed: 1,
		Index:     0,
		Spec:      s,
		Model:     &m,
		Space:     searchspace.DefaultVisionSpace(),
		Profile: sim.CloudProfile{
			Instance: it,
			Pricing:  cloud.DefaultPricing(),
			Overheads: cloud.Overheads{
				QueueDelay:  stats.Deterministic{Value: 0},
				InitLatency: stats.Deterministic{Value: 10},
			},
		},
		MaxGPUs:        32,
		DeadlineFactor: 2.2,
		Drift:          DriftModel{Factor: 2.0, StartFraction: 0.15},
		ReplanEnabled:  true,
		DriftThreshold: 0.15,
		ReplanCooldown: 10,
	}
}

// TestReplanBeatsStalePlanUnderSlowdown is the acceptance demo: under an
// injected 2x mid-run slowdown, the replanned run meets a deadline the
// stale plan misses, with at least one adopted decision, and both runs
// pass every oracle.
func TestReplanBeatsStalePlanUnderSlowdown(t *testing.T) {
	sc := driftScenario(t)
	a, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Planned {
		t.Fatal("planner rejected the pinned deadline")
	}
	adopted := 0
	for _, d := range a.Result.Replans {
		if d.Adopted {
			adopted++
			// Differential claim: the adopted tail was planned under the
			// remaining deadline and, when it rescued an infeasible stale
			// tail, predicts a JCT no worse than the stale one's.
			if d.NewEstimate.JCT > d.RemainingDeadline+1e-9 {
				t.Errorf("decision %d adopted JCT %v over remaining deadline %v", d.Seq, d.NewEstimate.JCT, d.RemainingDeadline)
			}
			if d.StaleEstimate.JCT > d.RemainingDeadline && d.NewEstimate.JCT > d.StaleEstimate.JCT {
				t.Errorf("decision %d adopted JCT %v worse than the infeasible stale tail's %v", d.Seq, d.NewEstimate.JCT, d.StaleEstimate.JCT)
			}
		}
	}
	if adopted == 0 {
		t.Fatalf("no replan adopted; decisions: %+v", a.Result.Replans)
	}
	if a.Result.JCT > a.Deadline {
		t.Fatalf("replanned run missed the deadline: JCT %v > %v", a.Result.JCT, a.Deadline)
	}
	if vs := CheckAll(a, DefaultOracles()); len(vs) != 0 {
		t.Fatalf("replanned run violations: %v", vs)
	}

	stale := sc
	stale.ReplanEnabled = false
	b, err := RunScenario(stale)
	if err != nil {
		t.Fatal(err)
	}
	if b.Result.JCT <= b.Deadline {
		t.Fatalf("stale plan met the deadline (JCT %v <= %v); the demo is vacuous", b.Result.JCT, b.Deadline)
	}
	if vs := CheckAll(b, DefaultOracles()); len(vs) != 0 {
		t.Fatalf("stale run violations: %v", vs)
	}
	if a.Result.FinalPlan.Equal(a.Plan) {
		t.Fatal("adopted replans left the plan unchanged")
	}
	if !b.Result.FinalPlan.Equal(b.Plan) {
		t.Fatal("stale run's final plan drifted without a controller")
	}
}

// TestReplanDecisionsReplayable: the same scenario replays to the same
// digest and bit-identical decision records — the replayability half of
// the acceptance criteria.
func TestReplanDecisionsReplayable(t *testing.T) {
	sc := driftScenario(t)
	a, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if da, db := ComputeDigest(a), ComputeDigest(b); da != db {
		t.Fatalf("replay digest diverged: %016x vs %016x", uint64(da), uint64(db))
	}
	if !reflect.DeepEqual(a.Result.Replans, b.Result.Replans) {
		t.Fatalf("replan decisions diverged across replays:\n%+v\n%+v", a.Result.Replans, b.Result.Replans)
	}
	if len(a.Result.Replans) == 0 {
		t.Fatal("pinned scenario no longer replans")
	}
}

// TestReplanInfeasibleAfterDrift pins the other acceptance branch: under
// a 3x slowdown against a tight deadline every decision reports
// infeasibility rather than adopting a false-hope tail, and the oracles
// accept the missed deadline.
func TestReplanInfeasibleAfterDrift(t *testing.T) {
	sc := driftScenario(t)
	sc.Drift = DriftModel{Factor: 3.0, StartFraction: 0.2}
	sc.DeadlineFactor = 1.4
	a, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Planned {
		t.Fatal("planner rejected the pinned deadline")
	}
	if len(a.Result.Replans) == 0 {
		t.Fatal("no replan decisions under 3x drift")
	}
	for _, d := range a.Result.Replans {
		if d.Adopted {
			t.Errorf("decision %d adopted a tail in an unrecoverable run", d.Seq)
		}
		if !d.Infeasible {
			t.Errorf("decision %d not labeled infeasible", d.Seq)
		}
	}
	if a.Result.JCT <= a.Deadline {
		t.Fatal("run met a deadline classified infeasible; classification is too pessimistic")
	}
	if vs := CheckAll(a, DefaultOracles()); len(vs) != 0 {
		t.Fatalf("violations on a correctly classified infeasible run: %v", vs)
	}
}

// TestZeroDriftReplanIsNoOp is the zero-drift differential: on
// deterministic, fault-free, on-profile scenarios the detector never
// fires, so enabling the controller changes nothing — run digests are
// bit-identical with and without it and no decision is recorded. Indices
// are pinned (Generate is pure) to deterministic-clean draws of seed 13.
func TestZeroDriftReplanIsNoOp(t *testing.T) {
	for _, idx := range []int{37, 48, 61, 68} {
		sc := Generate(13, idx)
		if sc.Drift.Active() || sc.Faults != (cloud.FaultModel{}) || sc.DisablePlacement || sc.Model.IterNoiseStd > 0 {
			t.Fatalf("generator drifted: scenario 13/%d no longer deterministic-clean\n  %s", idx, sc)
		}
		on, off := sc, sc
		// Hand-forcing the controller on is incompatible with a generated
		// arbiter cap (both rewrite the live plan); this differential is
		// about replanning only.
		on.ArbiterCaps, off.ArbiterCaps = nil, nil
		on.ReplanEnabled, off.ReplanEnabled = true, false
		a, err := RunScenario(on)
		if err != nil {
			t.Fatalf("13/%d enabled: %v", idx, err)
		}
		b, err := RunScenario(off)
		if err != nil {
			t.Fatalf("13/%d disabled: %v", idx, err)
		}
		if len(a.Result.Replans) != 0 {
			t.Errorf("13/%d: %d replan decisions under zero drift", idx, len(a.Result.Replans))
		}
		if !a.Result.FinalPlan.Equal(a.Plan) {
			t.Errorf("13/%d: final plan %v differs from planned %v under zero drift", idx, a.Result.FinalPlan, a.Plan)
		}
		if da, db := ComputeDigest(a), ComputeDigest(b); da != db {
			t.Errorf("13/%d: zero-drift digests differ with/without controller: %016x vs %016x", idx, uint64(da), uint64(db))
		}
	}
}
