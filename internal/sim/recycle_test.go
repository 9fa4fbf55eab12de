package sim_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
)

// recycleCase is one Simulator configuration of the recycle-equivalence
// test. The cases differ in spec, training batch, queue delay and
// billing model, so a re-initialised Simulator's table meets keys and
// iteration distributions its previous job never had. A heavy case's
// queue delay is a Pareto with α = 2.5, a heavy tail with a finite
// variance.
type recycleCase struct {
	spec      *spec.ExperimentSpec
	batch     int
	heavy     bool
	billing   cloud.BillingModel
	minCharge float64
	maxGPUs   int
}

func recycleCases() []recycleCase {
	return []recycleCase{
		{spec.MustSHA(16, 2, 16, 2), 512, true, cloud.PerInstance, 60, 32},
		{spec.MustSHA(8, 2, 12, 2), 256, false, cloud.PerFunction, 0, 24},
		{spec.MustSHA(12, 3, 10, 3), 1024, true, cloud.PerFunction, 0, 36},
		{spec.MustSHA(32, 4, 6, 4), 512, false, cloud.PerInstance, 0, 48},
		{spec.MustSHA(6, 2, 20, 3), 128, true, cloud.PerInstance, 600, 16},
	}
}

// job returns the case's training and cloud profiles.
func (c recycleCase) job() (sim.TrainProfile, sim.CloudProfile) {
	m := model.ResNet50()
	m.IterNoiseStd = 0.1
	cp := sim.DefaultCloudProfile()
	cp.Pricing.Billing = c.billing
	cp.Pricing.MinChargeSeconds = c.minCharge
	cp.DatasetGB = 2
	cp.Overheads = cloud.Overheads{
		QueueDelay:  stats.Exponential{MeanValue: 5},
		InitLatency: stats.Normal{Mu: 15, Sigma: 3},
	}
	if c.heavy {
		cp.Overheads.QueueDelay = stats.Pareto{Scale: 2, Alpha: 2.5}
	}
	return sim.ModelTrainProfile{Model: m, Batch: c.batch, GPUsPerNode: 4}, cp
}

// newSim builds the case's simulator.
func (c recycleCase) newSim(t *testing.T) *sim.Simulator {
	t.Helper()
	prof, cp := c.job()
	sm, err := sim.New(c.spec, prof, cp, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sm
}

// initSim makes sm the case's simulator in place.
func (c recycleCase) initSim(t *testing.T, sm *sim.Simulator) {
	t.Helper()
	prof, cp := c.job()
	if err := sm.Init(c.spec, prof, cp); err != nil {
		t.Fatal(err)
	}
}

// searches runs the case's workload on sm — an elastic plan search
// under a deadline half again the static full-cluster plan's JCT, then
// Estimate and Breakdown of the planner's result, a static plan, a
// shrinking plan and a sub-trial plan — and renders every result. The
// rendering prints floats in their shortest round-tripping form, so two
// renderings are equal exactly when every value is bit-identical.
func (c recycleCase) searches(sm *sim.Simulator) string {
	stages := c.spec.NumStages()
	full, err := sm.Estimate(sim.Uniform(c.maxGPUs, stages))
	if err != nil {
		return err.Error()
	}
	p := &planner.Planner{Sim: sm, Deadline: 1.5 * full.JCT, MaxGPUs: c.maxGPUs}
	res, err := p.PlanElastic()
	out := fmt.Sprintf("plan %v %+v %v\n", res.Plan, res.Estimate, err)
	shrink := make([]int, stages)
	for i := range shrink {
		shrink[i] = c.spec.Stage(i).Trials
	}
	plans := []sim.Plan{sim.Uniform(c.maxGPUs, stages), {Alloc: shrink}, sim.Uniform(3, stages)}
	if err == nil {
		plans = append(plans, res.Plan)
	}
	for _, pl := range plans {
		est, err := sm.Estimate(pl)
		bd, berr := sm.Breakdown(pl)
		out += fmt.Sprintf("%v: %+v %v %+v %v\n", pl, est, err, bd, berr)
	}
	return out
}

// TestRecycledTablesMatchFresh: a Simulator re-initialised over a
// table another job filled — its segments, plan memo and share column
// under a different spec, profile and queue delay — returns
// exactly what a new Simulator returns: Estimate, Breakdown and
// PlanElastic. The same holds when a failed
// Init comes between the two jobs, and the failed Init leaves the
// Simulator without a job.
func TestRecycledTablesMatchFresh(t *testing.T) {
	cases := recycleCases()
	prof, cp := cases[0].job()
	want := make([]string, len(cases))
	for i, c := range cases {
		want[i] = c.searches(c.newSim(t))
		if !strings.HasPrefix(want[i], "plan (") || strings.HasPrefix(want[i], "plan ()") {
			t.Fatalf("case %d: the search found no plan:\n%s", i, want[i])
		}
	}
	for i, c := range cases {
		// The neighbouring case j differs from c in spec, batch and
		// queue delay.
		j := i ^ 1
		if j == len(cases) {
			j = i - 1
		}
		other := cases[j]
		for _, failed := range []bool{false, true} {
			var sm sim.Simulator
			other.initSim(t, &sm)
			other.searches(&sm)
			if failed {
				if err := sm.Init(c.spec, nil, cp); err == nil {
					t.Fatal("Init accepted a nil training profile")
				}
				if sm.Spec() != nil {
					t.Fatal("a failed Init kept the Simulator's job")
				}
				if err := sm.Init(c.spec, prof, sim.CloudProfile{}); err == nil {
					t.Fatal("Init accepted an invalid cloud profile")
				}
			}
			c.initSim(t, &sm)
			if got := c.searches(&sm); got != want[i] {
				t.Fatalf("case %d re-initialised after case %d (failed Init between: %v):\n%s\nnew Simulator:\n%s",
					i, j, failed, got, want[i])
			}
		}
	}
}

// TestInitMatchesNew: one Simulator initialised in place for every case
// in turn, forwards then backwards, returns for each exactly what a
// Simulator from New returns — StaticClusterJCTs, Estimate, Breakdown
// and PlanElastic — whatever job and billing model it was
// initialised for last. Reset leaves it ready for another Init.
func TestInitMatchesNew(t *testing.T) {
	cases := recycleCases()
	render := func(c recycleCase, sm *sim.Simulator) string {
		return fmt.Sprintf("static %v %v\n", sm.StaticClusterJCTs(c.maxGPUs, nil), sm.StaticClusterJCT(c.maxGPUs)) +
			c.searches(sm)
	}
	want := make([]string, len(cases))
	for i, c := range cases {
		want[i] = render(c, c.newSim(t))
	}
	var sm sim.Simulator
	for _, order := range [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}} {
		for _, i := range order {
			cases[i].initSim(t, &sm)
			if got := render(cases[i], &sm); got != want[i] {
				t.Fatalf("case %d initialised in place:\n%s\nfrom New:\n%s", i, got, want[i])
			}
		}
		sm.Reset()
		if sm.Spec() != nil {
			t.Fatal("Reset kept the Simulator's job")
		}
	}
}
