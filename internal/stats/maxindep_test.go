package stats

import (
	"math"
	"testing"
)

// clarkMaxIndep is MaxIndep before its tail cut: Clark's formula with
// the normal density and CDF evaluated at every α. It is the oracle the
// cut is held to, bit for bit.
func clarkMaxIndep(x, y Moment) Moment {
	a2 := x.Var + y.Var
	if a2 <= 0 {
		if x.Mean >= y.Mean {
			return x
		}
		return y
	}
	a := math.Sqrt(a2)
	alpha := (x.Mean - y.Mean) / a
	phi, cdf := normPDF(alpha), NormCDF(alpha)
	mean := x.Mean*cdf + y.Mean*(1-cdf) + a*phi
	second := (x.Mean*x.Mean+x.Var)*cdf + (y.Mean*y.Mean+y.Var)*(1-cdf) + (x.Mean+y.Mean)*a*phi
	v := second - mean*mean
	if v < 0 {
		v = 0
	}
	return Moment{Mean: mean, Var: v}
}

// checkMaxIndep fails t unless MaxIndep(x, y) has the oracle's bits.
func checkMaxIndep(t *testing.T, x, y Moment) {
	t.Helper()
	got, want := MaxIndep(x, y), clarkMaxIndep(x, y)
	if math.Float64bits(got.Mean) != math.Float64bits(want.Mean) || math.Float64bits(got.Var) != math.Float64bits(want.Var) {
		t.Fatalf("MaxIndep(%v, %v) = %v, Clark's formula gives %v", x, y, got, want)
	}
}

// tailPair draws a pair whose standardized gap α = (x.Mean − y.Mean)/a
// has a magnitude log-uniform in [38, 1e9] and a random sign. One pair
// in four is a ClampBelow at c = 0 (y the point mass 0), one in four
// has a zero-variance side, and means are as often negative as not.
func tailPair(r *RNG) (x, y Moment) {
	alpha := math.Exp(math.Log(38) + r.Float64()*(math.Log(1e9)-math.Log(38)))
	if r.Intn(2) == 0 {
		alpha = -alpha
	}
	sx := math.Exp(6 * r.NormFloat64())
	x.Var = sx * sx
	switch r.Intn(4) {
	case 0: // ClampBelow(x, 0)
	case 1: // a point mass against a spread side
		y.Mean = 1e3 * r.NormFloat64()
	default:
		sy := sx * math.Exp(2*r.NormFloat64())
		y = Moment{Mean: 1e3 * r.NormFloat64(), Var: sy * sy}
	}
	if r.Intn(2) == 0 {
		x, y = y, x
		alpha = -alpha
	}
	a := math.Sqrt(x.Var + y.Var)
	x.Mean = y.Mean + alpha*a
	return x, y
}

// TestMaxIndepTailCutExact: past the cut MaxIndep returns exactly what
// Clark's formula with the density and CDF evaluated returns, on random
// tail pairs, at α = ±40 exactly, and on either side of the cut.
func TestMaxIndepTailCutExact(t *testing.T) {
	r := NewRNG(42)
	for i := 0; i < 200000; i++ {
		x, y := tailPair(r)
		checkMaxIndep(t, x, y)
		checkMaxIndep(t, x, Moment{})
	}
	for _, a := range []float64{1, 0.25, 4, 1e-3, 1e6} {
		for _, alpha := range []float64{-tailAlpha, tailAlpha, math.Nextafter(tailAlpha, 0), math.Nextafter(-tailAlpha, 0), 38, -38, 39, -39, 1e9, -1e9} {
			// x.Var + y.Var = a², so α is alpha up to one rounding.
			for _, ym := range []float64{0, -5e3, 7} {
				checkMaxIndep(t, Moment{Mean: ym + alpha*a, Var: a * a}, Moment{Mean: ym})
				checkMaxIndep(t, Moment{Mean: ym}, Moment{Mean: ym + alpha*a, Var: a * a})
				checkMaxIndep(t, Moment{Mean: ym + alpha*a, Var: a * a / 2}, Moment{Mean: ym, Var: a * a / 2})
			}
		}
	}
	// ClampBelow at c = 0 with α = ±40 exactly (a = 1).
	for _, m := range []float64{-tailAlpha, tailAlpha} {
		x := Moment{Mean: m, Var: 1}
		if got, want := ClampBelow(x, 0), clarkMaxIndep(x, Moment{}); got != want {
			t.Fatalf("ClampBelow(%v, 0) = %v, Clark's formula gives %v", x, got, want)
		}
	}
}

// TestNormTailSaturatesAtCut guards the cut's premise: at |α| = 40 the
// normal density is exactly 0 and the CDF exactly 1 or 0. A toolchain
// whose math.Exp or math.Erfc stops underflowing or saturating there
// fails here rather than in a digest.
func TestNormTailSaturatesAtCut(t *testing.T) {
	if v := normPDF(tailAlpha); v != 0 {
		t.Errorf("normPDF(%v) = %v, want 0", float64(tailAlpha), v)
	}
	if v := normPDF(-tailAlpha); v != 0 {
		t.Errorf("normPDF(%v) = %v, want 0", float64(-tailAlpha), v)
	}
	if v := NormCDF(tailAlpha); v != 1 {
		t.Errorf("NormCDF(%v) = %v, want 1", float64(tailAlpha), v)
	}
	if v := NormCDF(-tailAlpha); v != 0 {
		t.Errorf("NormCDF(%v) = %v, want 0", float64(-tailAlpha), v)
	}
}

// FuzzMaxIndepMatchesClark holds MaxIndep to Clark's formula, bit for
// bit, on any four floats: tail and body gaps, zero and negative
// variances, infinities and NaN.
func FuzzMaxIndepMatchesClark(f *testing.F) {
	f.Add(40.0, 1.0, 0.0, 0.0)
	f.Add(0.0, 0.0, 40.0, 1.0)
	f.Add(-3e4, 16.0, 5.0, 9.0)
	f.Add(10.0, 4.0, 12.0, 9.0)
	f.Add(math.Inf(1), 1.0, 0.0, 1.0)
	f.Add(1e9, 1e-12, -1e9, 0.0)
	f.Fuzz(func(t *testing.T, xm, xv, ym, yv float64) {
		checkMaxIndep(t, Moment{Mean: xm, Var: xv}, Moment{Mean: ym, Var: yv})
	})
}

// maxSink keeps the benchmarked results live.
var maxSink Moment

// BenchmarkMaxIndep times one Clark max in the tail, where one side
// dominates by 100 standard deviations (the common case of a
// minimum-charge clamp), and in the body, at α = 1.
func BenchmarkMaxIndep(b *testing.B) {
	for _, c := range []struct {
		name string
		x, y Moment
	}{
		{"tail", Moment{Mean: 3600, Var: 36 * 36}, Moment{Mean: 0}},
		{"body", Moment{Mean: 110, Var: 64}, Moment{Mean: 100, Var: 36}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			x := c.x
			for i := 0; i < b.N; i++ {
				maxSink = MaxIndep(x, c.y)
			}
		})
	}
}
