package sim_test

import (
	"fmt"
	"testing"

	"repro/internal/cloud"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/profiler"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
)

// checkFloor fails t unless sm's static cost floor holds at every size
// 1..n and stays at or below Estimate's cost of the static plan there.
// It returns the largest floor/cost ratio it saw.
func checkFloor(t *testing.T, name string, sm *sim.Simulator, n int) (tightest float64) {
	t.Helper()
	sm.StaticClusterJCTs(n, nil)
	stages := sm.Spec().NumStages()
	for g := 1; g <= n; g++ {
		floor, ok := sm.StaticCostFloor(g)
		if !ok {
			t.Fatalf("%s: no static cost floor at %d GPUs, though every latency has finite moments", name, g)
		}
		est, err := sm.Estimate(sim.Uniform(g, stages))
		if err != nil {
			t.Fatal(err)
		}
		if floor > est.Cost {
			t.Errorf("%s: static cost floor %v at %d GPUs exceeds the estimated cost %v", name, floor, g, est.Cost)
		}
		if est.Cost > 0 {
			tightest = max(tightest, floor/est.Cost)
		}
	}
	return tightest
}

// TestStaticCostFloorBoundsEstimate: on hand-built Simulators covering
// both billing models, minimum charges of 0, 60 s and an hour, the spot
// market, data ingress, 1-, 4- and 8-GPU instances, deterministic and
// stochastic overheads, and model, profiled, pointer and scaled training
// profiles, the floor never exceeds the estimated cost of a static plan.
func TestStaticCostFloorBoundsEstimate(t *testing.T) {
	rep, err := profiler.Profile(model.ResNet50(), 512, profiler.Options{MaxGPUs: 16, GPUsPerNode: 4}, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	quiet := model.ResNet50()
	quiet.IterNoiseStd = 0
	profiles := map[string]sim.TrainProfile{
		"model":    sim.ModelTrainProfile{Model: model.ResNet50(), Batch: 512, GPUsPerNode: 4},
		"quiet":    sim.ModelTrainProfile{Model: quiet, Batch: 512, GPUsPerNode: 4},
		"measured": rep.Profile,
		"pointer":  &rep.Profile,
		"scaled":   sim.ScaledTrainProfile{Base: rep.Profile, Factor: 1.5},
	}
	overheads := map[string]cloud.Overheads{
		"deterministic": {QueueDelay: stats.Deterministic{Value: 5}, InitLatency: stats.Deterministic{Value: 15}},
		"stochastic":    {QueueDelay: stats.Exponential{MeanValue: 8}, InitLatency: stats.Normal{Mu: 20, Sigma: 6}},
		"none":          {QueueDelay: stats.Deterministic{}, InitLatency: stats.Deterministic{}},
	}
	specs := []*spec.ExperimentSpec{spec.MustSHA(16, 2, 16, 2), spec.MustSHA(64, 4, 508, 2), spec.MustSHA(5, 1, 7, 3)}
	var tightest float64
	for _, instName := range []string{"p3.2xlarge", "p3.8xlarge", "p3.16xlarge"} {
		it, err := cloud.DefaultCatalog().Lookup(instName)
		if err != nil {
			t.Fatal(err)
		}
		for _, billing := range []cloud.BillingModel{cloud.PerInstance, cloud.PerFunction} {
			for _, market := range []cloud.Market{cloud.OnDemand, cloud.Spot} {
				for _, minCharge := range []float64{0, 60, 3600} {
					for oname, ov := range overheads {
						for pname, prof := range profiles {
							for si, sp := range specs {
								cp := sim.CloudProfile{
									Instance:  it,
									Pricing:   cloud.Pricing{Billing: billing, Market: market, MinChargeSeconds: minCharge, DataPricePerGB: 0.02},
									Overheads: ov,
									DatasetGB: 30,
								}
								sm, err := sim.New(sp, prof, cp, 4, stats.NewRNG(1))
								if err != nil {
									t.Fatal(err)
								}
								name := fmt.Sprintf("%s/%v/%v/min%v/%s/%s/spec%d", instName, billing, market, minCharge, oname, pname, si)
								tightest = max(tightest, checkFloor(t, name, sm, 4*sp.TotalTrials()))
							}
						}
					}
				}
			}
		}
	}
	t.Logf("tightest floor: %.9f of the estimated cost", tightest)
}

// TestStaticCostFloorOnCorpus: on every scenario of
// harness.Generate(7, 0..999), planned as the harness plans it, the floor
// holds at every static size up to the scenario's GPU cap and never
// exceeds the estimated cost.
func TestStaticCostFloorOnCorpus(t *testing.T) {
	var tightest float64
	for i := 0; i < 1000; i++ {
		sc := harness.Generate(7, i)
		prof := sim.ModelTrainProfile{Model: sc.Model, Batch: sc.Model.BaseBatch, GPUsPerNode: sc.Profile.Instance.GPUs}
		sm, err := sim.New(sc.Spec, prof, sc.Profile, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		tightest = max(tightest, checkFloor(t, sc.String(), sm, sc.MaxGPUs))
	}
	t.Logf("tightest floor: %.9f of the estimated cost", tightest)
}

// opaqueProfile hides a training profile's type, so the Simulator
// cannot tell which distributions it returns.
type opaqueProfile struct{ sim.TrainProfile }

// TestStaticCostFloorRefusesFallback: when an iteration latency may lack
// finite moments (a Pareto α = 1.8 profile) or a profile's
// distributions are unknown, the floor reports itself unusable at every
// size. Provisioning latencies without finite moments (a Pareto α = 1.8
// queue delay or init latency) never reach it: the Simulator refuses
// them.
func TestStaticCostFloorRefusesFallback(t *testing.T) {
	resnet := sim.ModelTrainProfile{Model: model.ResNet50(), Batch: 512, GPUsPerNode: 4}
	for name, ov := range map[string]cloud.Overheads{
		"pareto queue": {QueueDelay: stats.Pareto{Scale: 2, Alpha: 1.8}, InitLatency: stats.Deterministic{Value: 15}},
		"pareto init":  {QueueDelay: stats.Deterministic{Value: 5}, InitLatency: stats.Pareto{Scale: 2, Alpha: 1.8}},
	} {
		cp := sim.DefaultCloudProfile()
		cp.Overheads = ov
		if _, err := sim.New(spec.MustSHA(16, 2, 16, 2), resnet, cp, 0, nil); err == nil {
			t.Fatalf("%s: the Simulator accepted it", name)
		}
	}
	cases := map[string]*sim.Simulator{
		"pareto profile": searchSim(t, paretoProfile{base: 1, alpha: 1.8}),
		"opaque profile": searchSim(t, opaqueProfile{resnet}),
	}
	for name, sm := range cases {
		sm.StaticClusterJCTs(64, nil)
		for g := 1; g <= 64; g++ {
			if floor, ok := sm.StaticCostFloor(g); ok {
				t.Fatalf("%s: static cost floor %v at %d GPUs reported usable", name, floor, g)
			}
		}
	}
}
