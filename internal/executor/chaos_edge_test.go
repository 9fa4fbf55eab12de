package executor

// Edge-case tests distilled from the chaos harness (internal/harness):
// preemptions racing the synchronization barrier, preemption in the final
// stage's last iteration, repeated preemption of a trial that is still
// recovering, and the scatter-placement regression the harness's
// usage-metering oracle caught (see TestScatterPreservesRunningGangs).

import (
	"slices"
	"testing"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/trial"
	"repro/internal/vclock"
)

// newHarnessOn is newHarness with a chosen worker instance type, no
// provisioning latency and a checkpoint restore of restore seconds.
func newHarnessOn(t *testing.T, instName string, restore float64, seed uint64) *harness {
	t.Helper()
	prof := testProfile(t, instName, 0, 0)
	prof.RestoreSeconds = restore
	return newHarnessProfile(t, prof, seed)
}

// preemptGangNode reclaims one node of the trial's current gang.
func preemptGangNode(t *testing.T, h *harness, job *Job, id trial.ID) {
	t.Helper()
	gang := job.r.gang[id]
	if len(gang) == 0 {
		t.Fatalf("trial %d has no gang", id)
	}
	node := gang[0].node // the gang's lowest node ID
	if !h.provider.Preempt(node.Instance) {
		t.Fatalf("node %d (instance %d) was not preemptible", node.ID, node.Instance.ID)
	}
}

// checkLedgerCapacity asserts no instance metered more GPU-seconds than
// its GPU count times its billed lifetime — the harness's usage-metering
// oracle, inlined.
func checkLedgerCapacity(t *testing.T, h *harness, end vclock.Time) {
	t.Helper()
	for _, in := range h.provider.Instances() {
		if !in.Billing() {
			continue
		}
		if capacity := float64(in.Type.GPUs) * in.BilledLifetime(end); in.GPUSecondsUsed > capacity+1e-6 {
			t.Errorf("instance %d metered %v GPU-seconds, capacity x lifetime is %v",
				in.ID, in.GPUSecondsUsed, capacity)
		}
	}
}

func TestScatterPreservesRunningGangs(t *testing.T) {
	// Regression: chaos scenario seed=2 index=52 (and three others, all
	// scatter-mode) tripped the usage-metering oracle. On a queue
	// hand-off, scatter recomputed the whole plan from scratch and
	// "moved" running gangs to other nodes; the in-flight iteration kept
	// metering the old GPUs while the freed-looking ones were handed to
	// the next trial — double-booking hardware. A re-place must keep
	// live gangs pinned.
	nodes := []*cluster.Node{{ID: 0, GPUs: 1}, {ID: 1, GPUs: 1}}
	prev := placement.Plan{1: {{Node: 1, GPUs: 1}}}
	got := scatter([]int32{-1, 1, 1}, nodes, prev)
	if got == nil {
		t.Fatal("scatter failed")
	}
	if !slices.Equal(got[1], placement.Assignment{{Node: 1, GPUs: 1}}) {
		t.Fatalf("running trial 1 moved off node 1: %v", got[1])
	}
	if !slices.Equal(got[2], placement.Assignment{{Node: 0, GPUs: 1}}) {
		t.Fatalf("new trial 2 not placed on the freed node 0: %v", got[2])
	}

	// A gang whose node vanished (preemption) must be re-placed.
	gone := placement.Plan{1: {{Node: 9, GPUs: 1}}}
	got = scatter([]int32{-1, 1}, nodes, gone)
	if got == nil || got[1].GPUs() != 1 || got[1][0].Node == 9 {
		t.Fatalf("vanished-node gang not re-placed: %v", got)
	}
}

func TestScatterHandoffKeepsLedgerWithinCapacity(t *testing.T) {
	// End-to-end shape of the same regression: noisy iteration latencies
	// stagger trial finishes, so queue hand-offs happen while other
	// trials are mid-iteration. Every hand-off re-places; the billing
	// ledger must never exceed physical capacity.
	h := newHarnessOn(t, "p3.2xlarge", 0, 77)
	s := spec.Empty().AddStage(6, 3)
	m := quietModel()
	m.IterNoiseStd = 0.6
	cfg := runConfig(t, h, s, sim.NewPlan(2), m, 77)
	cfg.DisablePlacement = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkLedgerCapacity(t, h, vclock.Time(res.JCT))
}

func TestPreemptionRacingSyncBarrier(t *testing.T) {
	// Two trials finish their stage at the same virtual instant. Stop
	// the clock right after the first reaches the barrier and preempt
	// the second's node: its pending completion event is stale and must
	// be discarded, the finished trial keeps its results, and the stage
	// replays only for the victim.
	h := newHarnessOn(t, "p3.2xlarge", 3, 60)
	s := spec.Empty().AddStage(2, 2).AddStage(1, 2)
	m := quietModel()
	m.IterNoiseStd = 0
	cfg := runConfig(t, h, s, sim.NewPlan(2, 1), m, 60)
	job, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !h.clock.RunUntil(func() bool { return job.r.soa.doneCount == 1 }) {
		t.Fatal("no trial reached the barrier")
	}
	var victim trial.ID = -1
	for _, tr := range job.r.trials {
		if !job.r.soa.done[tr.ID()] && tr.State() == trial.Running {
			victim = tr.ID()
		}
	}
	if victim < 0 {
		t.Fatal("no running trial left to preempt")
	}
	preemptGangNode(t, h, job, victim)

	if !h.clock.RunUntil(job.Done) {
		t.Fatal("job did not complete")
	}
	res, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Preemptions != 1 {
		t.Fatalf("preemptions = %d, want 1", res.Preemptions)
	}
	var completed, terminated int
	for _, tr := range res.Trials {
		switch tr.State() {
		case trial.Completed:
			completed++
			if tr.CumIters() != 4 {
				t.Fatalf("winner trained %d iterations, want 4", tr.CumIters())
			}
		case trial.Terminated:
			terminated++
			if tr.CumIters() != 2 {
				t.Fatalf("loser trained %d iterations, want its full stage-0 budget 2", tr.CumIters())
			}
		default:
			t.Fatalf("trial %d left in state %v", tr.ID(), tr.State())
		}
	}
	if completed != 1 || terminated != 1 {
		t.Fatalf("completed=%d terminated=%d, want 1/1", completed, terminated)
	}
	checkLedgerCapacity(t, h, vclock.Time(res.JCT))
}

func TestPreemptionDuringFinalStageLastIteration(t *testing.T) {
	// The stage-1 survivor loses its node one iteration before the
	// finish line: it must roll back to the stage-1 checkpoint, replay
	// the whole stage on the replacement node, and still complete.
	h := newHarnessOn(t, "p3.2xlarge", 2, 61)
	s := spec.Empty().AddStage(2, 2).AddStage(1, 3)
	m := quietModel()
	m.IterNoiseStd = 0
	cfg := runConfig(t, h, s, sim.NewPlan(2, 1), m, 61)
	job, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	survivorAt := func(cum int) (trial.ID, bool) {
		if job.r.stage != 1 {
			return -1, false
		}
		for _, id := range job.r.stageSet {
			if job.r.trials[int(id)].CumIters() == cum {
				return id, true
			}
		}
		return -1, false
	}
	if !h.clock.RunUntil(func() bool { _, ok := survivorAt(4); return ok }) {
		t.Fatal("survivor never reached its penultimate iteration")
	}
	id, _ := survivorAt(4)
	preemptGangNode(t, h, job, id)

	if !h.clock.RunUntil(job.Done) {
		t.Fatal("job did not complete")
	}
	res, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Preemptions != 1 {
		t.Fatalf("preemptions = %d, want 1", res.Preemptions)
	}
	winner := res.Trials[int(id)]
	if winner.State() != trial.Completed {
		t.Fatalf("survivor ended %v, want completed", winner.State())
	}
	if winner.CumIters() != 5 {
		t.Fatalf("survivor trained %d iterations, want 5 (stage replayed)", winner.CumIters())
	}
	checkLedgerCapacity(t, h, vclock.Time(res.JCT))
}

func TestRepeatedPreemptionOfRecoveringTrial(t *testing.T) {
	// The same trial is preempted twice: once mid-stage, then again
	// right after it restarts on the replacement node. Each recovery
	// rolls back to the stage checkpoint; the run must still converge.
	h := newHarnessOn(t, "p3.2xlarge", 1, 62)
	s := spec.Empty().AddStage(1, 2)
	m := quietModel()
	m.IterNoiseStd = 0
	cfg := runConfig(t, h, s, sim.NewPlan(1), m, 62)
	job, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := func() *trial.Trial { return job.r.trials[0] }
	for round := 0; round < 2; round++ {
		if !h.clock.RunUntil(func() bool {
			return tr().State() == trial.Running && tr().CumIters() == 1
		}) {
			t.Fatalf("round %d: trial never reached mid-stage", round)
		}
		preemptGangNode(t, h, job, 0)
		if tr().State() == trial.Running {
			t.Fatalf("round %d: trial still running after losing its node", round)
		}
	}
	if !h.clock.RunUntil(job.Done) {
		t.Fatal("job did not complete")
	}
	res, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Preemptions != 2 {
		t.Fatalf("preemptions = %d, want 2", res.Preemptions)
	}
	if tr().State() != trial.Completed || tr().CumIters() != 2 {
		t.Fatalf("trial ended %v with %d iterations, want completed/2", tr().State(), tr().CumIters())
	}
	checkLedgerCapacity(t, h, vclock.Time(res.JCT))
}

// TestBarrierSnapshotMatchesReturnedPlan: the controller's Remove edits
// the live plan in place, so syncBarrier snapshots it first. Stepping
// runs event by event — both placement modes, queue hand-offs, changing
// allocations, preemptions — the snapshot must equal a deep copy of the
// plan as the stage's last placement epoch returned it, and so yield the
// same migration count at the next stage start.
func TestBarrierSnapshotMatchesReturnedPlan(t *testing.T) {
	for _, scatter := range []bool{false, true} {
		h := faultHarness(t, cloud.FaultModel{PreemptionMeanSeconds: 200}, 3, 31)
		s := spec.MustSHA(8, 2, 16, 2)
		cfg := runConfig(t, h, s, sim.NewPlan(4, 8, 8, 4), quietModel(), 31)
		cfg.DisablePlacement = scatter
		job, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := job.r
		var ref placement.Plan // deep copy of the plan while a stage runs
		checked, moved := 0, 0
		for !job.Done() {
			if r.remaining > 0 {
				ref = make(placement.Plan, len(r.plan))
				for i, a := range r.plan {
					ref[i] = slices.Clone(a)
				}
			}
			rows := len(r.rows)
			if !h.clock.Step() {
				t.Fatal("event queue drained before completion")
			}
			if len(r.rows) == rows || rows == 0 {
				continue
			}
			if !slices.EqualFunc(r.prevPlan, ref, slices.Equal) {
				t.Fatalf("scatter=%v stage %d: barrier snapshot %v, last returned plan %v", scatter, r.stage, r.prevPlan, ref)
			}
			got, want := placement.Moves(r.prevPlan, r.plan), placement.Moves(ref, r.plan)
			if got != want {
				t.Fatalf("scatter=%v stage %d: Moves = %d, reference %d", scatter, r.stage, got, want)
			}
			checked++
			moved += got
		}
		if _, err := job.Result(); err != nil {
			t.Fatal(err)
		}
		if checked != s.NumStages()-1 || moved == 0 || r.preemptions == 0 {
			t.Fatalf("scatter=%v: %d stage starts checked, %d moves, %d preemptions; want %d, > 0, > 0",
				scatter, checked, moved, r.preemptions, s.NumStages()-1)
		}
	}
}
