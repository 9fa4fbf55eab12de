package sim

import (
	"repro/internal/model"
	"repro/internal/stats"
)

// TrainProfile supplies the profiled training-latency behaviour the
// simulator needs: the distribution of one training iteration's latency at
// a given per-trial GPU allocation, assuming the placement controller
// co-locates workers on a minimal node set.
type TrainProfile interface {
	// IterDist returns the one-iteration latency distribution at gpus
	// data parallel workers.
	IterDist(gpus int) stats.Dist
}

// IterMean returns p.IterDist(gpus).Mean(), the mean iteration latency
// at gpus, bit for bit. For the profile types this package defines it
// computes the mean directly, without boxing a distribution in an
// interface per call.
func IterMean(p TrainProfile, gpus int) float64 {
	switch p := p.(type) {
	case ModelTrainProfile:
		return p.Model.IterLatencyMean(p.Batch, gpus, model.MinNodes(gpus, p.GPUsPerNode))
	case MeasuredTrainProfile:
		return p.BaseMean / p.Scaling.Speedup(gpus)
	case *MeasuredTrainProfile:
		return p.BaseMean / p.Scaling.Speedup(gpus)
	case ScaledTrainProfile:
		return IterMean(p.Base, gpus) * p.Factor
	}
	return p.IterDist(gpus).Mean()
}

// ModelTrainProfile derives iteration latencies analytically from a zoo
// model — the ground truth used by the simulated experiments.
type ModelTrainProfile struct {
	// Model is the architecture being tuned.
	Model *model.Model
	// Batch is the fixed effective batch size (strong scaling).
	Batch int
	// GPUsPerNode is the accelerator count of the worker instance type,
	// used to compute the minimal node spread at each allocation.
	GPUsPerNode int
}

// IterDist returns the model's iteration latency at gpus co-located (to
// the extent possible) workers.
func (p ModelTrainProfile) IterDist(gpus int) stats.Dist {
	nodes := model.MinNodes(gpus, p.GPUsPerNode)
	return p.Model.IterLatencyDist(p.Batch, gpus, nodes)
}

// MeasuredTrainProfile is a profiler-produced training profile: a measured
// single-GPU iteration latency (mean and straggler σ) plus an interpolated
// speedup function over GPU counts.
type MeasuredTrainProfile struct {
	// BaseMean and BaseStd describe one iteration's latency at 1 GPU.
	BaseMean, BaseStd float64
	// Scaling is the measured speedup function.
	Scaling *model.InterpolatedScaling
}

// IterDist returns the measured latency distribution scaled to gpus.
func (p MeasuredTrainProfile) IterDist(gpus int) stats.Dist {
	speedup := p.Scaling.Speedup(gpus)
	mean := p.BaseMean / speedup
	if p.BaseStd == 0 {
		return stats.Deterministic{Value: mean}
	}
	return stats.Normal{Mu: mean, Sigma: p.BaseStd / speedup}
}

// ScaledTrainProfile wraps a TrainProfile, multiplying every iteration
// latency by Factor — the model of a uniform slowdown (Factor > 1) or
// speedup (Factor < 1) relative to the profiled behaviour. Deterministic
// and Normal base distributions scale in closed form (multiplying a
// truncated normal's sample by a positive factor equals sampling the
// scaled parameters), so a scaled profile's TRAIN totals still collapse
// in stats.SumMoment; anything else is wrapped in stats.Scaled.
type ScaledTrainProfile struct {
	Base   TrainProfile
	Factor float64
}

// IterDist returns the base distribution at gpus with latency × Factor.
func (p ScaledTrainProfile) IterDist(gpus int) stats.Dist {
	switch v := p.Base.IterDist(gpus).(type) {
	case stats.Deterministic:
		return stats.Deterministic{Value: v.Value * p.Factor}
	case stats.Normal:
		return stats.Normal{Mu: v.Mu * p.Factor, Sigma: v.Sigma * p.Factor}
	default:
		return stats.Scaled{D: v, Factor: p.Factor}
	}
}
