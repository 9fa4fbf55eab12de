// Package model is the deep-learning training substrate that RubberBand
// tunes. Real GPUs and PyTorch are unavailable in this reproduction, so the
// package simulates exactly the two observables the system consumes:
//
//  1. per-iteration training latency as a function of the number of data
//     parallel workers and their physical placement (sub-linear scaling,
//     Figure 4; placement penalty, Table 1), and
//  2. intermediate training metrics — a parametric learning curve
//     acc(config, iterations) with diminishing returns and observation
//     noise, so Successive Halving has a real signal to select on.
//
// Hyperparameters are assumed not to affect throughput (§3, training
// assumptions), so the scaling profile is shared by all trials of a job.
package model

import (
	"fmt"
	"math"
)

// ScalingProfile captures how data parallel training throughput scales
// with allocated GPUs, following an Amdahl-style communication model:
//
//	speedup(g, nodes) = g / (1 + αintra·(g−1) + αinter·(nodes−1))
//
// αintra is the per-additional-worker overhead of in-node (NVLink)
// all-reduce; αinter is the much larger penalty per crossed node boundary,
// which reproduces the Table 1 gap between placement-aware (~3.8x at 4
// GPUs) and placement-unaware (~1.8x) execution.
type ScalingProfile struct {
	// AlphaIntra is the in-node communication overhead coefficient.
	AlphaIntra float64
	// AlphaInter is the cross-node communication overhead coefficient.
	AlphaInter float64
}

// Speedup returns the throughput multiplier relative to a single GPU for a
// trial whose g workers span the given number of nodes. It panics if g < 1
// or nodes < 1, and treats nodes > g as g (one worker cannot span nodes).
func (p ScalingProfile) Speedup(g, nodes int) float64 {
	if g < 1 {
		panic(fmt.Sprintf("model: speedup of %d GPUs", g))
	}
	if nodes < 1 {
		panic(fmt.Sprintf("model: speedup across %d nodes", nodes))
	}
	if nodes > g {
		nodes = g
	}
	denom := 1 + p.AlphaIntra*float64(g-1) + p.AlphaInter*float64(nodes-1)
	return float64(g) / denom
}

// Efficiency returns Speedup(g, nodes)/g — the fraction of linear scaling
// achieved. It is the quantity whose decline makes late-stage scale-up
// cost-inefficient.
func (p ScalingProfile) Efficiency(g, nodes int) float64 {
	return p.Speedup(g, nodes) / float64(g)
}

// MinNodes returns the smallest number of nodes that g workers can span on
// instances with gpusPerNode accelerators — the placement controller's
// co-location target.
func MinNodes(g, gpusPerNode int) int {
	if g <= 0 || gpusPerNode <= 0 {
		panic("model: MinNodes with non-positive arguments")
	}
	return (g + gpusPerNode - 1) / gpusPerNode
}

// InterpolatedScaling is a measured scaling function: speedup samples at
// specific GPU counts (typically powers of two collected by the profiler)
// with log-linear interpolation between them and flat extrapolation past
// the final sample. It implements the same Speedup contract as
// ScalingProfile for co-located workers; cross-node penalties are layered
// by the caller.
type InterpolatedScaling struct {
	gpus    []int
	speedup []float64
}

// NewInterpolatedScaling builds an interpolated scaling function from
// (gpus, speedup) samples: a new InterpolatedScaling put through Set.
func NewInterpolatedScaling(gpus []int, speedups []float64) (*InterpolatedScaling, error) {
	s := new(InterpolatedScaling)
	if err := s.Set(gpus, speedups); err != nil {
		return nil, err
	}
	return s, nil
}

// Set makes s the scaling function of the (gpus, speedup) samples,
// copying them into columns s keeps, so an owner that re-fits one
// function repeatedly allocates nothing once the columns hold the
// longest sample set. Samples must be in strictly increasing GPU order,
// start at 1 GPU with speedup 1, and have positive speedups; on error s
// is left unchanged.
func (s *InterpolatedScaling) Set(gpus []int, speedups []float64) error {
	if len(gpus) == 0 || len(gpus) != len(speedups) {
		return fmt.Errorf("model: need matching non-empty samples, got %d/%d", len(gpus), len(speedups))
	}
	if gpus[0] != 1 {
		return fmt.Errorf("model: scaling samples must start at 1 GPU, got %d", gpus[0])
	}
	for i := range gpus {
		if speedups[i] <= 0 {
			return fmt.Errorf("model: non-positive speedup %v at %d GPUs", speedups[i], gpus[i])
		}
		if i > 0 && gpus[i] <= gpus[i-1] {
			return fmt.Errorf("model: GPU samples not increasing at index %d", i)
		}
	}
	s.gpus = append(s.gpus[:0], gpus...)
	s.speedup = append(s.speedup[:0], speedups...)
	return nil
}

// Speedup returns the interpolated speedup at g GPUs (co-located).
// Between samples it interpolates linearly in (log g, log speedup) space;
// beyond the last sample it extrapolates with the final segment's slope,
// capped at linear scaling.
func (s *InterpolatedScaling) Speedup(g int) float64 {
	if g < 1 {
		panic(fmt.Sprintf("model: speedup of %d GPUs", g))
	}
	n := len(s.gpus)
	if g <= s.gpus[0] {
		return s.speedup[0]
	}
	for i := 1; i < n; i++ {
		if g == s.gpus[i] {
			return s.speedup[i]
		}
		if g < s.gpus[i] {
			return s.interp(i-1, i, g)
		}
	}
	if n == 1 {
		return s.speedup[0]
	}
	// Extrapolate using the last segment, never exceeding linear.
	v := s.interp(n-2, n-1, g)
	if v > float64(g) {
		v = float64(g)
	}
	if v < s.speedup[n-1] {
		v = s.speedup[n-1] // speedup is assumed non-decreasing
	}
	return v
}

func (s *InterpolatedScaling) interp(i, j, g int) float64 {
	x0, x1 := math.Log(float64(s.gpus[i])), math.Log(float64(s.gpus[j]))
	y0, y1 := math.Log(s.speedup[i]), math.Log(s.speedup[j])
	x := math.Log(float64(g))
	t := (x - x0) / (x1 - x0)
	return math.Exp(y0 + t*(y1-y0))
}

// Samples returns copies of the sample points.
func (s *InterpolatedScaling) Samples() (gpus []int, speedups []float64) {
	return append([]int(nil), s.gpus...), append([]float64(nil), s.speedup...)
}
