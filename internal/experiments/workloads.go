package experiments

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
)

// workload bundles the knobs the simulated experiments of §6.1 sweep.
type workload struct {
	spec      *spec.ExperimentSpec
	model     *model.Model
	batch     int
	instance  string // catalog name
	billing   cloud.BillingModel
	dataPrice float64 // $/GB ingress
	datasetGB float64
	queue     float64 // provisioning queue delay (s)
	initLat   float64 // instance initialization latency (s)
	deadline  float64 // time constraint (s)
	maxGPUs   int
}

// simulator builds the plan simulator for the workload.
func (w workload) simulator() (*sim.Simulator, error) {
	it, err := cloud.DefaultCatalog().Lookup(w.instance)
	if err != nil {
		return nil, err
	}
	cp := sim.CloudProfile{
		Instance: it,
		Pricing: cloud.Pricing{
			Billing:          w.billing,
			Market:           cloud.OnDemand,
			MinChargeSeconds: 60,
			DataPricePerGB:   w.dataPrice,
		},
		Overheads: cloud.Overheads{
			QueueDelay:  stats.Deterministic{Value: w.queue},
			InitLatency: stats.Deterministic{Value: w.initLat},
		},
		DatasetGB: w.datasetGB,
	}
	prof := sim.ModelTrainProfile{Model: w.model, Batch: w.batch, GPUsPerNode: it.GPUs}
	return sim.New(w.spec, prof, cp, 0, nil)
}

// planner builds a planner over a fresh simulator.
func (w workload) planner() (*planner.Planner, error) {
	sm, err := w.simulator()
	if err != nil {
		return nil, err
	}
	return &planner.Planner{Sim: sm, Deadline: w.deadline, MaxGPUs: w.maxGPUs}, nil
}

// policyCosts compiles the static and RubberBand-elastic plans for the
// workload and returns their predicted costs. Infeasible workloads return
// an error.
func (w workload) policyCosts() (static, elastic planner.Result, err error) {
	p, err := w.planner()
	if err != nil {
		return planner.Result{}, planner.Result{}, err
	}
	static, err = p.PlanStatic()
	if err != nil {
		return planner.Result{}, planner.Result{}, fmt.Errorf("static: %w", err)
	}
	elastic, err = p.PlanElastic()
	if err != nil {
		return planner.Result{}, planner.Result{}, fmt.Errorf("elastic: %w", err)
	}
	return static, elastic, nil
}

// fig9Workload is the §6.1.1/§6.1.2/§6.1.3 base job: SHA(n=64, r=4,
// R=508), ResNet-50 at batch 512 over p3.8xlarge workers.
func fig9Workload(cfg Config) workload {
	m := model.ResNet50()
	s := spec.MustSHA(64, 4, 508, 2)
	deadline := 900.0 // tight enough that elasticity matters (§6.1)
	if cfg.Fast {
		// A quarter-size job with the same long survivor tail, so fast
		// runs still exercise the regime where elastic allocation wins.
		s = spec.MustSHA(16, 4, 508, 2)
		deadline = 700
	}
	return workload{
		spec:     s,
		model:    m,
		batch:    512,
		instance: "p3.8xlarge",
		billing:  cloud.PerInstance,
		deadline: deadline,
		maxGPUs:  256,
	}
}
