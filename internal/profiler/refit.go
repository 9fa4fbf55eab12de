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

// BaseSigma returns the base profile's 1-GPU latency spread: the σ of
// its 1-GPU distribution when that is normal, else 0. It boxes the
// distribution, so an owner refitting one base repeatedly takes it once
// and hands it to every Fit.Refit.
func BaseSigma(base sim.TrainProfile) float64 {
	if n, ok := base.IterDist(1).(stats.Normal); ok {
		return n.Sigma
	}
	return 0
}

// Fit re-fits a training profile from online observations without
// re-running the instrumentation step (§5): the incremental counterpart
// of Profile, used by the replan controller when execution drifts from
// the profiled prediction. A Fit is the storage of a refit: the fitted
// profile, the scaling function it points to, and the columns the fit is
// computed in. A Fit refitted again overwrites all of it, so an owner
// that keeps one (the replan controller) refits without allocating once
// the columns hold its largest grid. Profile points into f: it is valid
// until f's next Refit. The zero Fit is ready for use.
type Fit struct {
	// Profile is the latest refit's profile.
	Profile sim.MeasuredTrainProfile

	scaling  model.InterpolatedScaling
	observed []Observation
	grid     []int
	means    []float64
	speedups []float64
}

// Refit re-fits base from obs into f.Profile; baseSigma is
// BaseSigma(base). Allocations that were observed keep their measured
// means exactly; the rest of the powers-of-two grid (up to maxGPUs)
// carries the base profile's prediction scaled by the global
// observation-weighted drift ratio — a uniform-slowdown prior for the
// unobserved region. Speedups are re-anchored at the fitted 1-GPU mean
// and clamped at 1, matching Profile's policy that more GPUs are never
// treated as a slowdown. The result is a pure function of (base,
// baseSigma, maxGPUs, obs): no randomness, no clock, nothing left from
// an earlier refit. Refit checks and orders the observations, taking
// the drift ratio in their given order, and leaves the fit to fit. On
// error f.Profile is left as it was.
func (f *Fit) Refit(base sim.TrainProfile, baseSigma float64, maxGPUs int, obs []Observation) error {
	if base == nil {
		return fmt.Errorf("profiler: refit of nil profile")
	}
	if maxGPUs < 1 {
		return fmt.Errorf("profiler: refit max GPUs %d", maxGPUs)
	}
	if len(obs) == 0 {
		return fmt.Errorf("profiler: refit without observations")
	}
	// observed holds the observations in ascending GPU order.
	observed := f.observed[:0]
	var ratioSum, weight float64
	for _, o := range obs {
		if o.GPUs < 1 || o.Count < 1 || o.Mean <= 0 {
			return fmt.Errorf("profiler: invalid observation %+v", o)
		}
		at, dup := slices.BinarySearchFunc(observed, o.GPUs, byGPUs)
		if dup {
			return fmt.Errorf("profiler: duplicate observation at %d GPUs", o.GPUs)
		}
		pred := sim.IterMean(base, o.GPUs)
		if pred <= 0 {
			return fmt.Errorf("profiler: base profile predicts %v at %d GPUs", pred, o.GPUs)
		}
		observed = slices.Insert(observed, at, o)
		ratioSum += float64(o.Count) * (o.Mean / pred)
		weight += float64(o.Count)
	}
	f.observed = observed
	if err := f.fit(base, baseSigma, maxGPUs, ratioSum/weight); err != nil {
		return fmt.Errorf("profiler: refitting scaling function: %w", err)
	}
	return nil
}

// fit fits f.Profile to f.observed, valid observations in ascending GPU
// order whose observation-weighted drift ratio is ratio.
//
//rbvet:noalloc
func (f *Fit) fit(base sim.TrainProfile, baseSigma float64, maxGPUs int, ratio float64) error {
	// Fit grid: the profiler's powers-of-two ladder up to maxGPUs (which
	// starts at the 1-GPU anchor), plus every observed allocation.
	grid := f.grid[:0]
	for g := 1; g <= maxGPUs; g *= 2 {
		grid = append(grid, g)
	}
	for _, o := range f.observed {
		grid = append(grid, o.GPUs)
	}
	slices.Sort(grid)
	grid = slices.Compact(grid)

	means := f.means[:0]
	for _, g := range grid {
		if j, ok := slices.BinarySearchFunc(f.observed, g, byGPUs); ok {
			means = append(means, f.observed[j].Mean)
			continue
		}
		means = append(means, sim.IterMean(base, g)*ratio)
	}
	baseMean := means[0]

	speedups := f.speedups[:0]
	for i := range grid {
		sp := baseMean / means[i]
		if i == 0 || sp < 1 {
			sp = 1
		}
		speedups = append(speedups, sp)
	}
	f.grid, f.means, f.speedups = grid, means, speedups
	if err := f.scaling.Set(grid, speedups); err != nil {
		return err
	}
	// The base 1-GPU spread carries through scaled by the drift ratio, so
	// relative noise is preserved (the same σ∝μ relationship
	// MeasuredTrainProfile applies across allocations).
	f.Profile = sim.MeasuredTrainProfile{
		BaseMean: baseMean,
		BaseStd:  baseSigma * ratio,
		Scaling:  &f.scaling,
	}
	return nil
}

// byGPUs orders an observation against a GPU count.
func byGPUs(o Observation, gpus int) int { return cmp.Compare(o.GPUs, gpus) }
