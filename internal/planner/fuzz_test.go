package planner

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
)

// FuzzPlanElastic fuzzes the elastic planner over sanitized experiment
// shapes, deadlines and queueing latencies (odd rawTail draws a
// heavy-tailed Pareto queue delay with α = 2.5, whose variance is
// finite) and checks its contract: any returned plan is
// valid for the spec, fits under MaxGPUs, meets the deadline by its own
// estimate, replanning from an identical simulator is bit-identical, and
// the merged search agrees exactly with the unmerged reference
// (referenceSearch). ErrInfeasible is the only acceptable refusal. Every Simulator releases its segment table after
// its last search, so each search runs on a table earlier searches, of
// this input or of earlier ones, used and released.
func FuzzPlanElastic(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint64(8), uint64(4), uint64(12), uint64(16), uint64(0))
	f.Add(uint64(7), uint64(4), uint64(10), uint64(2), uint64(8), uint64(32), uint64(1))
	f.Add(uint64(42), uint64(1), uint64(3), uint64(5), uint64(25), uint64(4), uint64(2))
	f.Add(uint64(99), uint64(3), uint64(6), uint64(1), uint64(10), uint64(6), uint64(2))
	// Six GPUs: a static frontier of at most 8 live candidates.
	f.Add(uint64(5), uint64(1), uint64(6), uint64(3), uint64(20), uint64(5), uint64(0))
	f.Fuzz(func(t *testing.T, seed, rawStages, rawTrials, rawIters, rawFactor, rawMax, rawTail uint64) {
		nStages := int(rawStages%4) + 1
		trials := int(rawTrials%10) + 2
		iters := int(rawIters%6) + 1
		// Deadline factor in [0.5, 3.0): both infeasible and slack.
		factor := 0.5 + float64(rawFactor%25)/10
		maxGPUs := int(rawMax%32) + 1

		s := spec.Empty()
		for i := 0; i < nStages; i++ {
			s = s.AddStage(trials, iters)
			// Next stage keeps at most as many trials (early stopping).
			trials = 1 + int((seed>>uint(4*i))%uint64(trials))
		}

		m := model.ResNet50()
		m.IterNoiseStd = 0.1
		prof := sim.ModelTrainProfile{Model: m, Batch: 512, GPUsPerNode: 4}
		cp := sim.DefaultCloudProfile()
		cp.Pricing.MinChargeSeconds = 0
		cp.Overheads = cloud.Overheads{
			QueueDelay:  stats.Deterministic{Value: 5},
			InitLatency: stats.Deterministic{Value: 15},
		}
		if rawTail%2 == 1 {
			cp.Overheads.QueueDelay = stats.Pareto{Scale: 2, Alpha: 2.5}
		}
		// newSim re-initialises the one Simulator every search below
		// runs on, so each search after the first runs on the table the
		// one before it filled, emptied.
		var kept sim.Simulator
		newSim := func() *sim.Simulator {
			if err := kept.Init(s, prof, cp); err != nil {
				t.Fatalf("sim: %v", err)
			}
			return &kept
		}
		sm := newSim()
		deadline := sm.StaticClusterJCT(maxGPUs) * factor
		p := &Planner{Sim: sm, Deadline: deadline, MaxGPUs: maxGPUs}
		res, descents, err := p.mergedSearch()

		// Merged descents: the unmerged reference search, each warm-start
		// descent run to its end on its own allocations, must agree
		// exactly, descent by descent and refusal included. The
		// comparison follows a second merged search on another planner,
		// which reuses the pooled scratch the first one released.
		indep := &Planner{Sim: newSim(), Deadline: deadline, MaxGPUs: maxGPUs}
		ires, idescents, ierr := indep.referenceSearch()
		other := &Planner{Sim: newSim(), Deadline: 2 * deadline, MaxGPUs: maxGPUs + 3}
		_, _ = other.PlanElastic()
		if !sameResult(res, err, ires, ierr) || !sameDescents(descents, idescents) {
			t.Fatalf("merged search gave %v %+v (err %v, descents %v), independent descents %v %+v (err %v, descents %v)",
				res.Plan, res.Estimate, err, descents, ires.Plan, ires.Estimate, ierr, idescents)
		}

		if err != nil {
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("unexpected planner error: %v", err)
			}
			return
		}
		if verr := res.Plan.Validate(s.NumStages()); verr != nil {
			t.Fatalf("invalid plan %v: %v", res.Plan, verr)
		}
		if res.Plan.Max() > maxGPUs {
			t.Fatalf("plan %v exceeds cap %d", res.Plan, maxGPUs)
		}
		if res.Estimate.JCT > deadline+1e-9 {
			t.Fatalf("estimate %v misses deadline %v", res.Estimate.JCT, deadline)
		}
		if math.IsNaN(res.Estimate.Cost) || res.Estimate.Cost < 0 {
			t.Fatalf("estimate cost %v", res.Estimate.Cost)
		}

		// Replanning on the re-initialised, identically seeded simulator
		// must be bit-identical.
		p2 := &Planner{Sim: newSim(), Deadline: deadline, MaxGPUs: maxGPUs}
		res2, err2 := p2.PlanElastic()
		if err2 != nil {
			t.Fatalf("replan failed: %v", err2)
		}
		if !res.Plan.Equal(res2.Plan) {
			t.Fatalf("replan diverged: %v vs %v", res.Plan, res2.Plan)
		}
		if math.Float64bits(res.Estimate.JCT) != math.Float64bits(res2.Estimate.JCT) ||
			math.Float64bits(res.Estimate.Cost) != math.Float64bits(res2.Estimate.Cost) {
			t.Fatalf("replan estimate diverged: %+v vs %+v", res.Estimate, res2.Estimate)
		}
	})
}
