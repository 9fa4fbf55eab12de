package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds order statistics and moments for a sample of float64
// observations. Construct with Summarize.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n-1 denominator)
	Min    float64
	Max    float64
	P50    float64
	P90    float64
	P99    float64
	StdErr float64 // standard error of the mean
}

// Summarize computes a Summary over xs. It returns a zero Summary when xs is
// empty.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	mean, std := MeanStdInPlace(sorted)
	return Summary{
		N:      len(sorted),
		Mean:   mean,
		Std:    std,
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		P50:    Percentile(sorted, 0.50),
		P90:    Percentile(sorted, 0.90),
		P99:    Percentile(sorted, 0.99),
		StdErr: std / math.Sqrt(float64(len(sorted))),
	}
}

// Percentile returns the p-th percentile (0 <= p <= 1) of an ascending-
// sorted slice using linear interpolation between closest ranks. It panics
// if sorted is empty or p is out of range.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p < 0 || p > 1 {
		panic("stats: Percentile p out of [0,1]")
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// String renders the summary as "mean ± std (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.4g ± %.4g (n=%d)", s.Mean, s.Std, s.N)
}

// MeanStd returns the mean and sample standard deviation of xs, a shorthand
// for the common experiment-table case.
func MeanStd(xs []float64) (mean, std float64) {
	s := Summarize(xs)
	return s.Mean, s.Std
}

// MeanStdInPlace sorts xs ascending in place and returns its mean and
// sample standard deviation (n-1 denominator), both summed in sorted
// order — the arithmetic of Summarize, bit for bit, without its copy. It
// returns zeros when xs is empty.
//
//rbvet:noalloc
func MeanStdInPlace(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	if len(xs) > 1 {
		std = math.Sqrt(ss / float64(len(xs)-1))
	}
	return mean, std
}
