package stats

import (
	"math"
	"testing"
)

// sampleMoment estimates the (mean, variance) of n draws produced by
// sample, for Monte-Carlo validation of the analytic rules.
func sampleMoment(n int, sample func(r *RNG) float64) Moment {
	r := NewRNG(12345)
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := sample(r)
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	return Moment{Mean: mean, Var: sq/float64(n) - mean*mean}
}

// TestDistVarAgainstSamples: every Varer implementation must agree with
// the sampled variance of its own Sample method to Monte-Carlo tolerance.
func TestDistVarAgainstSamples(t *testing.T) {
	dists := []Dist{
		Deterministic{Value: 3.5},
		Normal{Mu: 40, Sigma: 3},
		LogNormal{Mu: 1.2, Sigma: 0.4},
		Uniform{Lo: 2, Hi: 9},
		Exponential{MeanValue: 5},
		Pareto{Scale: 2, Alpha: 4},
		Repeat{D: Normal{Mu: 4, Sigma: 0.5}, N: 12},
		Scaled{D: Exponential{MeanValue: 3}, Factor: 2.5},
		Shifted{D: Uniform{Lo: 0, Hi: 4}, Offset: 10},
	}
	const n = 200000
	for _, d := range dists {
		m, ok := DistMoment(d)
		if !ok {
			t.Fatalf("%v: DistMoment unsupported", d)
		}
		got := sampleMoment(n, d.Sample)
		// 6 standard errors of the mean, and 10% relative on the variance.
		tol := 6*math.Sqrt(m.Var/n) + 1e-9
		if math.Abs(got.Mean-m.Mean) > tol {
			t.Errorf("%v: analytic mean %v vs sampled %v (tol %v)", d, m.Mean, got.Mean, tol)
		}
		if m.Var > 0 && math.Abs(got.Var-m.Var) > 0.1*m.Var+1e-9 {
			t.Errorf("%v: analytic var %v vs sampled %v", d, m.Var, got.Var)
		}
	}
}

// TestDistMomentRejectsInfiniteVariance: heavy tails without a second
// moment must be reported as unsupported, not as garbage numbers.
func TestDistMomentRejectsInfiniteVariance(t *testing.T) {
	if _, ok := DistMoment(Pareto{Scale: 1, Alpha: 1.5}); ok {
		t.Error("Pareto alpha=1.5 reported a finite moment")
	}
	if _, ok := DistMoment(Repeat{D: fakeDist{}, N: 3}); ok {
		t.Error("Repeat over a Varer-less dist reported a finite moment")
	}
	if _, ok := DistMoment(Scaled{D: fakeDist{}, Factor: 2}); ok {
		t.Error("Scaled over a Varer-less dist reported a finite moment")
	}
}

// fakeDist is a Dist with no Var method.
type fakeDist struct{}

func (fakeDist) Sample(*RNG) float64 { return 1 }
func (fakeDist) Mean() float64       { return 1 }
func (fakeDist) String() string      { return "fake" }

// TestNormQuantileRoundTrip: the quantile function inverts the CDF to
// high precision across the body and the tails.
func TestNormQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-9, 1e-4, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1 - 1e-4, 1 - 1e-9} {
		x := NormQuantile(p)
		back := NormCDF(x)
		if math.Abs(back-p) > 1e-12+1e-9*p {
			t.Errorf("NormCDF(NormQuantile(%v)) = %v", p, back)
		}
	}
	if !math.IsInf(NormQuantile(0), -1) || !math.IsInf(NormQuantile(1), 1) {
		t.Error("endpoint quantiles are not infinite")
	}
	if NormQuantile(0.5) != 0 && math.Abs(NormQuantile(0.5)) > 1e-12 {
		t.Errorf("median quantile %v", NormQuantile(0.5))
	}
}

// TestMaxIndepClark: Clark's pair max matches the sampled moments of
// max(X, Y) for independent normals, and degenerate pairs are exact.
func TestMaxIndepClark(t *testing.T) {
	cases := []struct{ x, y Moment }{
		{Moment{Mean: 10, Var: 4}, Moment{Mean: 12, Var: 9}},
		{Moment{Mean: 5, Var: 1}, Moment{Mean: 5, Var: 1}},
		{Moment{Mean: 0, Var: 25}, Moment{Mean: 8, Var: 0.01}},
	}
	const n = 400000
	for _, c := range cases {
		got := MaxIndep(c.x, c.y)
		want := sampleMoment(n, func(r *RNG) float64 {
			a := c.x.Mean + c.x.Std()*r.NormFloat64()
			b := c.y.Mean + c.y.Std()*r.NormFloat64()
			return math.Max(a, b)
		})
		if math.Abs(got.Mean-want.Mean) > 0.01*math.Abs(want.Mean)+0.02 {
			t.Errorf("MaxIndep(%v, %v) mean %v, sampled %v", c.x, c.y, got.Mean, want.Mean)
		}
		if math.Abs(got.Var-want.Var) > 0.05*want.Var+0.02 {
			t.Errorf("MaxIndep(%v, %v) var %v, sampled %v", c.x, c.y, got.Var, want.Var)
		}
	}
	// Exactness on point masses.
	if got := MaxIndep(Moment{Mean: 3}, Moment{Mean: 7}); got != (Moment{Mean: 7}) {
		t.Errorf("degenerate max = %v", got)
	}
}

// TestMaxIIDMomentAgainstSamples: the sketch-based gang max tracks the
// sampled moments of the maximum of m iid normals across group sizes,
// including the tail-heavy large-m regime where a Clark pair-chain
// drifts.
func TestMaxIIDMomentAgainstSamples(t *testing.T) {
	base := Moment{Mean: 100, Var: 25}
	const n = 200000
	for _, m := range []int{1, 2, 4, 8, 16, 64, 256} {
		got := MaxIIDMoment(base, m)
		want := sampleMoment(n, func(r *RNG) float64 {
			best := math.Inf(-1)
			for i := 0; i < m; i++ {
				v := base.Mean + base.Std()*r.NormFloat64()
				if v > best {
					best = v
				}
			}
			return best
		})
		if math.Abs(got.Mean-want.Mean) > 0.005*want.Mean {
			t.Errorf("m=%d: mean %v, sampled %v", m, got.Mean, want.Mean)
		}
		// The sketch compresses the extreme tails, so variance carries a
		// larger relative error than the mean; 25% is still far tighter
		// than the Monte-Carlo stderr the planner tolerates.
		if math.Abs(got.Var-want.Var) > 0.25*want.Var+0.05 {
			t.Errorf("m=%d: var %v, sampled %v", m, got.Var, want.Var)
		}
	}
	// Degenerate gang: max of iid point masses is the point mass.
	if got := MaxIIDMoment(Moment{Mean: 42}, 100); got != (Moment{Mean: 42}) {
		t.Errorf("degenerate gang max = %v", got)
	}
}

// TestQSketchQuantileMonotone: the sketch's quantile function is
// monotone, and its Gaussian-tail continuation is exact for a
// normal-derived sketch (whose grid is affine in z).
func TestQSketchQuantileMonotone(t *testing.T) {
	m := Moment{Mean: 10, Var: 4}
	s := SketchNormal(m)
	prev := math.Inf(-1)
	for p := 0.0001; p <= 0.9999; p += 0.005 {
		q := s.quantile(p)
		if q < prev {
			t.Fatalf("quantile not monotone at p=%v: %v < %v", p, q, prev)
		}
		prev = q
	}
	for _, p := range []float64{1e-6, 0.001, 0.999, 1 - 1e-6} {
		want := m.Mean + m.Std()*NormQuantile(p)
		if got := s.quantile(p); math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Errorf("tail quantile(%v) = %v, want %v", p, got, want)
		}
	}
	// A point-mass sketch clamps at the grid everywhere.
	pm := SketchNormal(Moment{Mean: 7})
	if pm.quantile(1e-9) != 7 || pm.quantile(1-1e-9) != 7 {
		t.Error("point-mass sketch does not clamp")
	}
}

// TestClampBelow: the min-charge correction matches sampled
// E[max(X, c)] and is exact for degenerate X.
func TestClampBelow(t *testing.T) {
	x := Moment{Mean: 30, Var: 400}
	const c = 60
	got := ClampBelow(x, c)
	want := sampleMoment(400000, func(r *RNG) float64 {
		return math.Max(x.Mean+x.Std()*r.NormFloat64(), c)
	})
	if math.Abs(got.Mean-want.Mean) > 0.01*want.Mean {
		t.Errorf("ClampBelow mean %v, sampled %v", got.Mean, want.Mean)
	}
	if got := ClampBelow(Moment{Mean: 10}, 25); got != (Moment{Mean: 25}) {
		t.Errorf("degenerate clamp = %v", got)
	}
	if got := ClampBelow(Moment{Mean: 80}, 25); got != (Moment{Mean: 80}) {
		t.Errorf("inactive clamp = %v", got)
	}
}

// TestMomentAlgebraZeroAlloc pins the hot-path moment operations to zero
// heap allocations: the analytic pass runs them per node per candidate.
func TestMomentAlgebraZeroAlloc(t *testing.T) {
	x := Moment{Mean: 10, Var: 4}
	y := Moment{Mean: 12, Var: 9}
	var out Moment
	allocs := testing.AllocsPerRun(100, func() {
		s := SketchNormal(x)
		s = s.MaxIID(16)
		out = s.Moment()
		out = MaxIndep(out, y).AddIndep(x)
	})
	if allocs != 0 {
		t.Fatalf("moment algebra allocates %v per run, want 0", allocs)
	}
	_ = out
}
