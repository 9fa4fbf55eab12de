package profiler

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Observation is one aggregated online measurement of iteration latency at
// a per-trial GPU allocation, fed back from the executor by the replan
// controller.
type Observation struct {
	// GPUs is the per-trial allocation the latencies were observed at.
	GPUs int
	// Mean is the observed mean iteration latency in seconds.
	Mean float64
	// Count is the number of iterations aggregated into Mean; it weights
	// the global drift ratio.
	Count int
}

// Refit re-fits a training profile from online observations without
// re-running the instrumentation step (§5): the incremental counterpart of
// Profile, used by the replan controller when execution drifts from the
// profiled prediction.
//
// Allocations that were observed keep their measured means exactly; the
// rest of the powers-of-two grid (up to maxGPUs) carries the base
// profile's prediction scaled by the global observation-weighted
// drift ratio — a uniform-slowdown prior for the unobserved region.
// Speedups are re-anchored at the fitted 1-GPU mean and clamped at 1,
// matching Profile's policy that more GPUs are never treated as a
// slowdown. The result is a pure function of (base, maxGPUs, obs): no
// randomness, no clock.
func Refit(base sim.TrainProfile, maxGPUs int, obs []Observation) (sim.MeasuredTrainProfile, error) {
	if base == nil {
		return sim.MeasuredTrainProfile{}, fmt.Errorf("profiler: refit of nil profile")
	}
	if maxGPUs < 1 {
		return sim.MeasuredTrainProfile{}, fmt.Errorf("profiler: refit max GPUs %d", maxGPUs)
	}
	if len(obs) == 0 {
		return sim.MeasuredTrainProfile{}, fmt.Errorf("profiler: refit without observations")
	}

	// observed holds the observations in ascending GPU order.
	observed := make([]Observation, 0, len(obs))
	var ratioSum, weight float64
	for _, o := range obs {
		if o.GPUs < 1 || o.Count < 1 || o.Mean <= 0 {
			return sim.MeasuredTrainProfile{}, fmt.Errorf("profiler: invalid observation %+v", o)
		}
		at, dup := slices.BinarySearchFunc(observed, o.GPUs, byGPUs)
		if dup {
			return sim.MeasuredTrainProfile{}, fmt.Errorf("profiler: duplicate observation at %d GPUs", o.GPUs)
		}
		pred := sim.IterMean(base, o.GPUs)
		if pred <= 0 {
			return sim.MeasuredTrainProfile{}, fmt.Errorf("profiler: base profile predicts %v at %d GPUs", pred, o.GPUs)
		}
		observed = slices.Insert(observed, at, o)
		ratioSum += float64(o.Count) * (o.Mean / pred)
		weight += float64(o.Count)
	}
	ratio := ratioSum / weight

	// Fit grid: the profiler's powers-of-two ladder up to maxGPUs (which
	// starts at the 1-GPU anchor), plus every observed allocation.
	grid := make([]int, 0, len(observed)+8)
	for g := 1; g <= maxGPUs; g *= 2 {
		grid = append(grid, g)
	}
	for _, o := range observed {
		grid = append(grid, o.GPUs)
	}
	slices.Sort(grid)
	grid = slices.Compact(grid)

	means := make([]float64, len(grid))
	for i, g := range grid {
		if j, ok := slices.BinarySearchFunc(observed, g, byGPUs); ok {
			means[i] = observed[j].Mean
			continue
		}
		means[i] = sim.IterMean(base, g) * ratio
	}
	baseMean := means[0]

	speedups := make([]float64, len(grid))
	for i := range grid {
		sp := baseMean / means[i]
		if i == 0 || sp < 1 {
			sp = 1
		}
		speedups[i] = sp
	}
	scaling, err := model.NewInterpolatedScaling(grid, speedups)
	if err != nil {
		return sim.MeasuredTrainProfile{}, fmt.Errorf("profiler: refitting scaling function: %w", err)
	}
	return sim.MeasuredTrainProfile{
		BaseMean: baseMean,
		BaseStd:  baseStd(base, ratio),
		Scaling:  scaling,
	}, nil
}

// byGPUs orders an observation against a GPU count.
func byGPUs(o Observation, gpus int) int { return cmp.Compare(o.GPUs, gpus) }

// baseStd carries the base profile's 1-GPU latency spread through a refit,
// scaled by the drift ratio so relative noise is preserved (the same σ∝μ
// relationship MeasuredTrainProfile applies across allocations).
func baseStd(base sim.TrainProfile, ratio float64) float64 {
	if n, ok := base.IterDist(1).(stats.Normal); ok {
		return n.Sigma * ratio
	}
	return 0
}
