package planner

import (
	"testing"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
)

func selectionInputs(t *testing.T) (*cloud.Catalog, *spec.ExperimentSpec, ProfileBuilder, sim.CloudProfile) {
	t.Helper()
	m := model.ResNet50()
	m.IterNoiseStd = 0.1
	profiles := func(it cloud.InstanceType) sim.TrainProfile {
		return sim.ModelTrainProfile{Model: m, Batch: 512, GPUsPerNode: it.GPUs}
	}
	base := sim.DefaultCloudProfile()
	base.Pricing.MinChargeSeconds = 0
	base.Overheads = cloud.Overheads{
		QueueDelay:  stats.Deterministic{Value: 5},
		InitLatency: stats.Deterministic{Value: 15},
	}
	return cloud.DefaultCatalog(), spec.MustSHA(32, 2, 64, 2), profiles, base
}

func TestSelectInstanceType(t *testing.T) {
	catalog, s, profiles, base := selectionInputs(t)
	sel, err := SelectInstanceType(catalog, s, profiles, base, 600, 128)
	if err != nil {
		t.Fatal(err)
	}
	// Only GPU types are evaluated: p3.2xlarge/8xlarge/16xlarge, not
	// r5.4xlarge.
	if len(sel.Choices) != 3 {
		t.Fatalf("choices = %d", len(sel.Choices))
	}
	for _, c := range sel.Choices {
		if c.Instance.GPUs < 1 {
			t.Fatalf("CPU type %s evaluated", c.Instance.Name)
		}
		if c.Feasible && c.Result.Estimate.JCT > 600 {
			t.Fatalf("%s plan violates deadline", c.Instance.Name)
		}
	}
	if !sel.Best.Feasible {
		t.Fatal("best choice infeasible")
	}
	// The best is the min-cost feasible choice.
	for _, c := range sel.Choices {
		if c.Feasible && c.Result.Estimate.Cost < sel.Best.Result.Estimate.Cost-1e-9 {
			t.Fatalf("%s ($%.2f) beats chosen %s ($%.2f)",
				c.Instance.Name, c.Result.Estimate.Cost,
				sel.Best.Instance.Name, sel.Best.Result.Estimate.Cost)
		}
	}
}

func TestSelectInstanceTypeInfeasible(t *testing.T) {
	catalog, s, profiles, base := selectionInputs(t)
	if _, err := SelectInstanceType(catalog, s, profiles, base, 1, 32); err != ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestSelectInstanceTypeValidation(t *testing.T) {
	catalog, s, profiles, base := selectionInputs(t)
	if _, err := SelectInstanceType(nil, s, profiles, base, 600, 32); err == nil {
		t.Error("nil catalog accepted")
	}
	if _, err := SelectInstanceType(catalog, s, nil, base, 600, 32); err == nil {
		t.Error("nil profile builder accepted")
	}
}

func TestSelectInstanceTypeTradeoffDirection(t *testing.T) {
	// With heavy cross-node penalties and multi-GPU late stages, bigger
	// nodes should not lose to 1-GPU nodes when the deadline forces
	// multi-GPU gangs: sanity-check the selection is driven by the
	// modeled trade-off, not catalog order.
	catalog, _, profiles, base := selectionInputs(t)
	s := spec.MustSHA(64, 4, 508, 2) // long multi-GPU survivor tail
	sel, err := SelectInstanceType(catalog, s, profiles, base, 900, 256)
	if err != nil {
		t.Fatal(err)
	}
	var single, multi *InstanceChoice
	for i := range sel.Choices {
		switch sel.Choices[i].Instance.Name {
		case "p3.2xlarge":
			single = &sel.Choices[i]
		case "p3.16xlarge":
			multi = &sel.Choices[i]
		}
	}
	if single == nil || multi == nil {
		t.Fatal("catalog entries missing")
	}
	if single.Feasible && multi.Feasible {
		// 1-GPU nodes force every multi-GPU gang across node boundaries
		// (αinter on every worker pair), so their plans should be slower
		// or costlier at this deadline.
		if single.Result.Estimate.Cost < multi.Result.Estimate.Cost*0.8 {
			t.Errorf("single-GPU nodes implausibly cheap: $%.2f vs $%.2f",
				single.Result.Estimate.Cost, multi.Result.Estimate.Cost)
		}
	}
}
