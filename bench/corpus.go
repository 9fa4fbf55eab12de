package main

import (
	"encoding/json"
	"math/rand/v2"

	"repro/internal/harness"
	"repro/internal/serve"
)

// block is the corpus stratum. Within every block of consecutive items,
// each drawn dimension takes each of its values equally often (a
// continuous one gets one draw per 1/block quantile), and the seed only
// decides how values pair up across dimensions. Means over a few blocks
// therefore move little from seed to seed, which keeps the spread of the
// quality metrics across seeds well inside their bounds.
const block = 120

var (
	models  = []string{"resnet50", "resnet101", "resnet152", "bert"}
	tenants = []string{"t0", "t1", "t2", "t3"}
)

// item is one generated input: the submission every workload sends, and
// the mid-run latency drift batch-replan injects (zero elsewhere).
type item struct {
	Sub   serve.Submission   `json:"submission"`
	Drift harness.DriftModel `json:"drift"`
}

// warmSeed seeds the warm-up slices. It is fixed, not taken from -seed:
// warm-up only fills caches, and a seed-independent warm-up keeps setup_s
// comparable across seeds.
const warmSeed = 0x5eed

// corpus generates slice number slice of workload w's inputs, n items,
// from seed: a pure function, so the same seed always yields
// byte-identical submissions. Each pass runs its own slice.
func corpus(w string, seed uint64, slice, n int) []item {
	r := rand.New(rand.NewPCG(seed, 0x7262626e6368+uint64(slice))) // "rbbnch"
	items := make([]item, 0, n)
	for len(items) < n {
		m := min(block, n-len(items))
		if w == "serve-edge" {
			items = appendTiny(r, items, m)
		} else {
			items = appendHalving(r, items, m, w == "batch-replan")
		}
	}
	return items
}

// appendHalving appends m successive-halving experiments: 2-4 stages
// starting at 8, 16 or 32 trials, 2-11 iterations per stage, MaxGPUs 8,
// 16 or 32, DeadlineFactor in [1.1, 2.5), a third on the analytic
// estimator. With drift (batch-replan), half the items slow down or
// speed up mid-run and replan, and Samples is 4 or 16.
func appendHalving(r *rand.Rand, items []item, m int, drift bool) []item {
	model, stages, start := balanced(r, m, len(models)), balanced(r, m, 3), balanced(r, m, 3)
	gpus, est, deadline := balanced(r, m, 3), balanced(r, m, 3), strata(r, m)
	var iters [4][]int
	for s := range iters {
		iters[s] = balanced(r, m, 10)
	}
	drifted, factor, onset, samples := balanced(r, m, 2), balanced(r, m, 3), strata(r, m), balanced(r, m, 2)
	for i := 0; i < m; i++ {
		sub := serve.Submission{
			Tenant:         tenants[len(items)%len(tenants)],
			Model:          models[model[i]],
			Seed:           r.Uint64(),
			MaxGPUs:        8 << gpus[i],
			DeadlineFactor: 1.1 + 1.4*deadline[i],
		}
		trials := 8 << start[i]
		for s := 0; s < 2+stages[i]; s++ {
			sub.Stages = append(sub.Stages, [2]int{trials, 2 + iters[s][i]})
			trials = max(1, trials/2)
		}
		if est[i] == 0 {
			sub.Estimator = "analytic"
		}
		it := item{Sub: sub}
		if drift {
			sub.Samples = 4 << (2 * samples[i])
			it.Sub = sub
			if drifted[i] == 1 {
				it.Drift = harness.DriftModel{
					Factor:        []float64{0.5, 1.5, 2}[factor[i]],
					StartFraction: 0.1 + 0.4*onset[i],
				}
			}
		}
		items = append(items, it)
	}
	return items
}

// appendTiny appends m one-stage experiments of 1-2 trials and one
// iteration on at most 2 GPUs: planning and execution are near free, so
// the request path dominates.
func appendTiny(r *rand.Rand, items []item, m int) []item {
	model, trials, deadline := balanced(r, m, len(models)), balanced(r, m, 2), strata(r, m)
	for i := 0; i < m; i++ {
		items = append(items, item{Sub: serve.Submission{
			Tenant:         tenants[len(items)%len(tenants)],
			Model:          models[model[i]],
			Stages:         [][2]int{{1 + trials[i], 1}},
			Seed:           r.Uint64(),
			MaxGPUs:        2,
			DeadlineFactor: 1.1 + 1.4*deadline[i],
		}})
	}
	return items
}

// balanced returns n values in [0, k), each value n/k times (±1), in
// seeded random order.
func balanced(r *rand.Rand, n, k int) []int {
	v := make([]int, n)
	for i := range v {
		v[i] = i % k
	}
	r.Shuffle(n, func(i, j int) { v[i], v[j] = v[j], v[i] })
	return v
}

// strata returns n draws from [0, 1), one inside each interval
// [i/n, (i+1)/n), in seeded random order.
func strata(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = (float64(i) + r.Float64()) / float64(n)
	}
	r.Shuffle(n, func(i, j int) { v[i], v[j] = v[j], v[i] })
	return v
}

// bodies renders each item's submission as the JSON request body.
func bodies(items []item) ([][]byte, error) {
	out := make([][]byte, len(items))
	for i, it := range items {
		b, err := json.Marshal(it.Sub)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// scenario maps an item to the harness scenario batch-replan runs: the
// served experiment's scenario, plus its drift with the replan
// controller on when drift is injected.
func scenario(it item) (harness.Scenario, error) {
	sc, err := serve.BuildScenario(it.Sub)
	if err != nil {
		return sc, err
	}
	sc.Drift = it.Drift
	sc.ReplanEnabled = it.Drift.Active()
	return sc, nil
}
