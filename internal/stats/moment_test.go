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

// TestDistVarAgainstSamples: every distribution's moments must agree with
// the sampled variance of its own Sample method to Monte-Carlo tolerance.
func TestDistVarAgainstSamples(t *testing.T) {
	dists := []Dist{
		Deterministic{Value: 3.5},
		Normal{Mu: 40, Sigma: 3},
		LogNormal{Mu: 1.2, Sigma: 0.4},
		Uniform{Lo: 2, Hi: 9},
		Exponential{MeanValue: 5},
		Pareto{Scale: 2, Alpha: 4},
		Scaled{D: Exponential{MeanValue: 3}, Factor: 2.5},
		Scaled{D: LogNormal{Mu: 0.5, Sigma: 0.3}, Factor: 4},
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
	if _, ok := DistMoment(Scaled{D: Pareto{Scale: 1, Alpha: 1.5}, Factor: 2}); ok {
		t.Error("Scaled over an infinite-variance Pareto reported a finite moment")
	}
	if _, ok := SumMoment(Pareto{Scale: 1, Alpha: 2}, 3); ok {
		t.Error("a sum of Pareto alpha=2 draws reported a finite moment")
	}
	if _, ok := SumMoment(nil, 3); ok {
		t.Error("a sum of nil draws reported a moment")
	}
}

// TestDistMomentClosedForms: each built-in type's moments are its closed
// forms bit for bit, a lognormal's variance taken as (exp(σ²)−1)·mean²,
// and a nil distribution is the point mass at zero.
func TestDistMomentClosedForms(t *testing.T) {
	ln := LogNormal{Mu: 1.3, Sigma: 0.7}
	lnMean := math.Exp(1.3 + 0.7*0.7/2)
	for _, c := range []struct {
		d    Dist
		want Moment
	}{
		{nil, Moment{}},
		{Deterministic{Value: 4}, Moment{Mean: 4}},
		{Normal{Mu: 3, Sigma: 0.5}, Moment{Mean: 3, Var: 0.25}},
		{ln, Moment{Mean: lnMean, Var: (math.Exp(0.7*0.7) - 1) * lnMean * lnMean}},
		{Uniform{Lo: 2, Hi: 8}, Moment{Mean: 5, Var: 3}},
		{Exponential{MeanValue: 6}, Moment{Mean: 6, Var: 36}},
		{Pareto{Scale: 2, Alpha: 3}, Moment{Mean: 3, Var: 3}},
		{Scaled{D: ln, Factor: 2}, Moment{Mean: 2 * lnMean, Var: 4 * ((math.Exp(0.7*0.7) - 1) * lnMean * lnMean)}},
	} {
		m, ok := DistMoment(c.d)
		if !ok || math.Float64bits(m.Mean) != math.Float64bits(c.want.Mean) || math.Float64bits(m.Var) != math.Float64bits(c.want.Var) {
			t.Errorf("%v: DistMoment (%+v, %v), want %+v", c.d, m, ok, c.want)
		}
	}
}

// TestSumMoment: a normal or deterministic total collapses with the
// variance taken as (√n·σ)², which can differ from n·σ² in the last
// bit; any other total scales the summand's moments by n.
func TestSumMoment(t *testing.T) {
	for _, n := range []int{0, 1, 3, 7, 100} {
		k := float64(n)
		sigma := math.Sqrt(k) * 0.3
		for _, c := range []struct {
			d    Dist
			want Moment
		}{
			{Deterministic{Value: 2.5}, Moment{Mean: k * 2.5}},
			{Normal{Mu: 1.1, Sigma: 0.3}, Moment{Mean: k * 1.1, Var: sigma * sigma}},
			{Exponential{MeanValue: 3}, Moment{Mean: 3 * k, Var: 9 * k}},
			{Uniform{Lo: 5, Hi: 9}, Moment{Mean: 7 * k, Var: 16.0 / 12 * k}},
		} {
			m, ok := SumMoment(c.d, n)
			if !ok || m != c.want {
				t.Errorf("%v x %d: SumMoment (%+v, %v), want %+v", c.d, n, m, ok, c.want)
			}
		}
	}
}

// TestNonNeg: a latency is provably non-negative when its type cannot
// sample below zero or its parameters keep it there, a Scaled one when
// its factor is non-negative and its base is provably non-negative, by
// value or by pointer; unknown types are not.
func TestNonNeg(t *testing.T) {
	for _, c := range []struct {
		d    Dist
		want bool
	}{
		{nil, true},
		{Deterministic{Value: 0}, true},
		{Deterministic{Value: -1}, false},
		{Normal{Mu: -5, Sigma: 1}, true},
		{LogNormal{Mu: -1, Sigma: 2}, true},
		{Pareto{Scale: 1, Alpha: 1.5}, true},
		{Uniform{Lo: 0, Hi: 1}, true},
		{Uniform{Lo: -1, Hi: 1}, false},
		{Exponential{MeanValue: 2}, true},
		{Exponential{MeanValue: -2}, false},
		{Scaled{D: Exponential{MeanValue: 2}, Factor: 3}, true},
		{Scaled{D: Exponential{MeanValue: 2}, Factor: -1}, false},
		{Scaled{D: Uniform{Lo: -1, Hi: 2}, Factor: 2}, false},
		{&Scaled{D: Normal{Mu: 4, Sigma: 1}, Factor: 0.5}, true},
		{&Scaled{D: Uniform{Lo: -1, Hi: 2}, Factor: 2}, false},
		{Scaled{D: Scaled{D: Deterministic{Value: 1}, Factor: 2}, Factor: 3}, true},
		{offset{Exponential{MeanValue: 1}}, false},
	} {
		if got := NonNeg(c.d); got != c.want {
			t.Errorf("NonNeg(%v) = %v, want %v", c.d, got, c.want)
		}
	}
}

// TestScaledPointerMatchesValue: a *Scaled — how an owner passes a
// scaled distribution it rewrites in place without boxing it anew —
// samples, reports moments and proves non-negativity exactly as the
// Scaled value does.
func TestScaledPointerMatchesValue(t *testing.T) {
	for _, s := range []Scaled{
		{D: Exponential{MeanValue: 2}, Factor: 3},
		{D: Normal{Mu: 4, Sigma: 1}, Factor: 0.5},
		{D: Uniform{Lo: -1, Hi: 2}, Factor: 2},
		{D: Exponential{MeanValue: 2}, Factor: -1},
		{D: LogNormal{Mu: 1, Sigma: 0.4}, Factor: 1.5},
	} {
		if got, want := NonNeg(&s), NonNeg(s); got != want {
			t.Errorf("%v: NonNeg by pointer %v, by value %v", s, got, want)
		}
		gm, gok := DistMoment(&s)
		wm, wok := DistMoment(s)
		if gm != wm || gok != wok {
			t.Errorf("%v: DistMoment by pointer %v %v, by value %v %v", s, gm, gok, wm, wok)
		}
		r1, r2 := NewRNG(5), NewRNG(5)
		for i := 0; i < 16; i++ {
			if a, b := Draw(&s, r1), s.Sample(r2); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%v: draw %d by pointer %v, by value %v", s, i, a, b)
			}
		}
	}
}

// offset is a distribution type NonNeg does not know.
type offset struct{ d Dist }

func (o offset) Sample(r *RNG) float64 { return 1 + o.d.Sample(r) }
func (o offset) Mean() float64         { return 1 + o.d.Mean() }
func (o offset) Var() float64          { return o.d.Var() }
func (o offset) String() string        { return "1+" + o.d.String() }

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
