package experiments

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/executor"
	"repro/internal/model"
	"repro/internal/searchspace"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// Table1Result holds the placement-controller ablation (§6.2): achieved
// sample throughput (samples/s) per trial at 1, 2 and 4 GPUs on a cluster
// of 8-GPU p3.16xlarge nodes, with and without the placement controller.
// Expected shape (paper: 749→1480→2773 vs 674→948→1210): with placement,
// throughput scales nearly linearly (~3.7x at 4 GPUs); without it,
// workers scatter across nodes and scaling collapses to ~1.8x.
type Table1Result struct {
	GPUs []int
	// Placed and Scattered are throughput mean/std per GPU count.
	Placed    []Stat
	Scattered []Stat
}

// Stat is a mean ± std pair.
type Stat struct{ Mean, Std float64 }

// Table1 measures end-to-end throughput through the executor with the
// placement controller enabled and disabled.
func Table1(cfg Config) (*Table1Result, error) {
	cfg = cfg.withDefaults()
	gpuCounts := []int{1, 2, 4}
	res := &Table1Result{GPUs: gpuCounts}
	for _, g := range gpuCounts {
		placed, err := table1Throughput(cfg, g, false)
		if err != nil {
			return nil, err
		}
		scattered, err := table1Throughput(cfg, g, true)
		if err != nil {
			return nil, err
		}
		res.Placed = append(res.Placed, placed)
		res.Scattered = append(res.Scattered, scattered)
	}
	return res, nil
}

// table1Throughput runs a one-stage workload of several trials at
// gpusPerTrial each on a fixed pool of p3.16xlarge nodes and returns the
// per-trial sample throughput across seeds.
func table1Throughput(cfg Config, gpusPerTrial int, scatter bool) (Stat, error) {
	// Eight trials provision a wide enough cluster (4 p3.16xlarge nodes
	// at 4 GPUs/trial) that scattering genuinely fragments gangs, as in
	// the paper's end-to-end setting.
	const (
		trials = 8
		iters  = 8
		batch  = 1024
	)
	var throughputs []float64
	for seed := uint64(0); seed < uint64(cfg.Seeds); seed++ {
		m := model.ResNet50()
		// §6.2 uses batch 1024; with gradient accumulation the batch is
		// held constant at every allocation.
		clock := vclock.New()
		rng := stats.NewRNG(cfg.Seed + 100 + seed)
		pricing := cloud.DefaultPricing()
		ov := cloud.Overheads{
			QueueDelay:  stats.Deterministic{Value: 0},
			InitLatency: stats.Deterministic{Value: 0},
		}
		it, err := cloud.DefaultCatalog().Lookup("p3.16xlarge")
		if err != nil {
			return Stat{}, err
		}
		provider, err := cloud.NewProvider(clock, rng.Split(), cloud.Profile{Instance: it, Pricing: pricing, Overheads: ov})
		if err != nil {
			return Stat{}, err
		}
		mgr, err := cluster.NewManager(provider, it, clock)
		if err != nil {
			return Stat{}, err
		}
		s := spec.Empty().AddStage(trials, iters)
		tr := trace.New()
		res, err := executor.Run(executor.Config{
			Spec:             s,
			Plan:             sim.NewPlan(trials * gpusPerTrial),
			Model:            m,
			Batch:            batch,
			Configs:          searchspace.DefaultVisionSpace().SampleN(rng, trials),
			Provider:         provider,
			Cluster:          mgr,
			Clock:            clock,
			RNG:              rng,
			Trace:            tr,
			DisablePlacement: scatter,
		})
		if err != nil {
			return Stat{}, err
		}
		// Per-trial throughput: each trial processed iters batches over
		// the stage span; stragglers make individual trials vary, so use
		// the stage span per trial via its iteration timestamps (the
		// trace's trial_iter events; the run has no preemptions, so no
		// iteration is ever rolled back).
		iterTimes := make([][]float64, len(res.Trials))
		for i := 0; i < tr.Len(); i++ {
			if e := tr.FieldsAt(i); e.Kind == trace.KindTrialIter {
				iterTimes[e.Trial] = append(iterTimes[e.Trial], float64(e.At))
			}
		}
		for _, t := range res.Trials {
			if ts := iterTimes[t.ID()]; len(ts) > 1 {
				// Exclude the first iteration's start offset by
				// averaging over completed iterations.
				perIter := (ts[len(ts)-1] - ts[0]) / float64(len(ts)-1)
				if perIter > 0 {
					throughputs = append(throughputs, float64(batch)/perIter)
				}
			}
		}
	}
	mean, std := stats.MeanStd(throughputs)
	return Stat{Mean: mean, Std: std}, nil
}

// String renders the ablation table.
func (r *Table1Result) render() *table {
	t := &table{
		title:  "Table 1: placement controller sample throughput (samples/s), ResNet-50 bs=1024 on p3.16xlarge",
		header: []string{"#GPUs", "Placement", "No Placement"},
	}
	for i, g := range r.GPUs {
		t.add(fmt.Sprint(g),
			meanStd(r.Placed[i].Mean, r.Placed[i].Std),
			meanStd(r.Scattered[i].Mean, r.Scattered[i].Std))
	}
	return t
}

// String renders the result as an aligned text table.
func (r *Table1Result) String() string { return r.render().String() }

// CSV renders the result as comma-separated values.
func (r *Table1Result) CSV() string { return r.render().CSV() }
