package searchspace

import (
	"fmt"
	"math"
	"sort"
)

// Grid enumerates a Cartesian grid over the space (Figure 2's "basic
// hyperparameter grid search"): numeric dimensions contribute
// pointsPerDim values — log-spaced for LogUniform, linearly spaced for
// Uniform and IntRange — and Choice dimensions contribute every option.
// Configurations are returned in deterministic lexicographic order of
// the sorted dimension names. It returns an error if the grid would
// exceed maxConfigs (0 means a default cap of 100000).
func (s *Space) Grid(pointsPerDim, maxConfigs int) ([]Config, error) {
	if pointsPerDim < 1 {
		return nil, fmt.Errorf("searchspace: pointsPerDim %d", pointsPerDim)
	}
	if maxConfigs <= 0 {
		maxConfigs = 100000
	}
	// Stable dimension order.
	dims := append([]Dimension(nil), s.dims...)
	sort.Slice(dims, func(i, j int) bool { return dims[i].Name() < dims[j].Name() })

	values := make([][]float64, len(dims))
	total := 1
	for i, d := range dims {
		vs, err := gridValues(d, pointsPerDim)
		if err != nil {
			return nil, err
		}
		values[i] = vs
		if total > maxConfigs/len(vs)+1 {
			return nil, fmt.Errorf("searchspace: grid exceeds %d configurations", maxConfigs)
		}
		total *= len(vs)
		if total > maxConfigs {
			return nil, fmt.Errorf("searchspace: grid of %d configurations exceeds cap %d", total, maxConfigs)
		}
	}

	lay := newLayout(dims)
	d := len(dims)
	vals := make([]float64, total*d)
	out := make([]Config, 0, total)
	idx := make([]int, len(dims))
	for {
		c := Config{lay: lay, vals: vals[len(out)*d : (len(out)+1)*d : (len(out)+1)*d]}
		for i := range dims {
			c.vals[i] = values[i][idx[i]]
		}
		out = append(out, c)
		// Odometer increment.
		k := len(dims) - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < len(values[k]) {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			break
		}
	}
	return out, nil
}

// gridValues returns the grid points of one dimension: numbers, or for a
// Choice the index of every option.
func gridValues(d Dimension, n int) ([]float64, error) {
	switch v := d.(type) {
	case Uniform:
		return linspace(v.Lo, v.Hi, n), nil
	case LogUniform:
		lo, hi := math.Log(v.Lo), math.Log(v.Hi)
		pts := linspace(lo, hi, n)
		for i := range pts {
			pts[i] = math.Exp(pts[i])
		}
		return pts, nil
	case IntRange:
		span := v.Hi - v.Lo
		if span+1 <= n {
			out := make([]float64, 0, span+1)
			for x := v.Lo; x <= v.Hi; x++ {
				out = append(out, float64(x))
			}
			return out, nil
		}
		pts := linspace(float64(v.Lo), float64(v.Hi), n)
		for i := range pts {
			pts[i] = math.Round(pts[i])
		}
		return dedupe(pts), nil
	case Choice:
		out := make([]float64, len(v.Options))
		for i := range out {
			out[i] = float64(i)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("searchspace: no grid for dimension type %T", d)
	}
}

// linspace returns n evenly spaced points from lo to hi inclusive (the
// midpoint for n == 1).
func linspace(lo, hi float64, n int) []float64 {
	if n == 1 {
		return []float64{(lo + hi) / 2}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	return out
}

// dedupe removes consecutive duplicates (from integer rounding).
func dedupe(xs []float64) []float64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}
