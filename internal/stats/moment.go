package stats

import "math"

// Moment is a (mean, variance) pair — the sufficient statistic the
// analytic estimator propagates in place of Monte-Carlo sample vectors.
// The algebra below covers exactly the operations a fork-join execution
// DAG needs: sums of independent terms, positive scaling, and maxima of
// independent terms (Clark's Gaussian moment matching, with the quantile
// sketch handling the iid gang case).
type Moment struct {
	Mean, Var float64
}

// Std returns the standard deviation, zero for non-positive variance.
func (m Moment) Std() float64 {
	if m.Var <= 0 {
		return 0
	}
	return math.Sqrt(m.Var)
}

// AddIndep returns the moment of the sum of two independent variables:
// means and variances add.
func (m Moment) AddIndep(o Moment) Moment {
	return Moment{Mean: m.Mean + o.Mean, Var: m.Var + o.Var}
}

// SubIndepPrefix returns the moment of X − P where P is an independent
// prefix of X (X = P + R with R independent of P): the mean and variance
// differences. Variance is clamped at zero against float cancellation.
func (m Moment) SubIndepPrefix(p Moment) Moment {
	v := m.Var - p.Var
	if v < 0 {
		v = 0
	}
	return Moment{Mean: m.Mean - p.Mean, Var: v}
}

// Scale returns the moment of c·X.
func (m Moment) Scale(c float64) Moment {
	return Moment{Mean: c * m.Mean, Var: c * c * m.Var}
}

// IsFinite reports whether both moments are finite — the precondition for
// every analytic propagation step. Distributions with infinite variance
// (Pareto with alpha <= 2) fail it and force the caller back to
// Monte-Carlo estimation.
func (m Moment) IsFinite() bool {
	return !math.IsInf(m.Mean, 0) && !math.IsNaN(m.Mean) &&
		!math.IsInf(m.Var, 0) && !math.IsNaN(m.Var) && m.Var >= 0
}

// invSqrt2Pi is 1/√(2π), the normal density normalizer.
const invSqrt2Pi = 0.3989422804014327

// normPDF is the standard normal density.
func normPDF(x float64) float64 { return invSqrt2Pi * math.Exp(-x*x/2) }

// NormCDF is the standard normal cumulative distribution function.
func NormCDF(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }

// NormQuantile is the standard normal quantile function (inverse CDF),
// computed with Acklam's rational approximation refined by one Halley
// step — relative error below 1e-9 across (0, 1). It returns ±Inf at the
// endpoints.
func NormQuantile(p float64) float64 {
	switch {
	case p <= 0:
		return math.Inf(-1)
	case p >= 1:
		return math.Inf(1)
	}
	// Acklam coefficients.
	var (
		a = [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
		b = [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
		c = [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
		d = [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}
	)
	const plow, phigh = 0.02425, 1 - 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= phigh:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement against the exact CDF.
	e := NormCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	return x - u/(1+x*u/2)
}

// MaxIndep returns the moments of max(X, Y) for independent X, Y under
// Clark's Gaussian moment matching (Clark 1961). When both variables are
// degenerate (zero variance) the result is the exact pointwise maximum,
// so deterministic DAGs propagate exactly.
func MaxIndep(x, y Moment) Moment {
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

// ClampBelow returns the moments of max(X, c) for X approximated as
// normal — the minimum-charge correction of the billing model. A
// degenerate X clamps exactly.
func ClampBelow(x Moment, c float64) Moment {
	if x.Var <= 0 {
		if x.Mean >= c {
			return x
		}
		return Moment{Mean: c}
	}
	return MaxIndep(x, Moment{Mean: c})
}

// SketchSize is the fixed quantile-grid resolution of QSketch. The grid
// holds the distribution's quantiles at the midpoint probability levels
// (j+0.5)/SketchSize, so integrating over the grid is a midpoint
// quadrature of ∫₀¹ q(p) dp.
const SketchSize = 32

// QSketch is a fixed-size quantile sketch: a non-decreasing grid of
// SketchSize quantile values at midpoint probability levels. It is the
// analytic estimator's representation for the max-over-gang and
// deadline-tail terms, where a Gaussian pair-max underestimates the tail:
// the maximum of m iid variables has quantile function q(p^(1/m)), which
// the sketch evaluates directly. The zero value is a point mass at 0.
// QSketch is a value type: all operations return or fill by value, and no
// operation allocates.
type QSketch struct {
	Q [SketchSize]float64
}

// sketchLevel returns the j-th midpoint probability level.
func sketchLevel(j int) float64 { return (float64(j) + 0.5) / SketchSize }

// SketchNormal fills the sketch with the quantiles of N(mean, std²). A
// zero std yields the exact point mass.
func SketchNormal(m Moment) QSketch {
	var s QSketch
	std := m.Std()
	if std == 0 {
		for j := range s.Q {
			s.Q[j] = m.Mean
		}
		return s
	}
	for j := range s.Q {
		s.Q[j] = m.Mean + std*NormQuantile(sketchLevel(j))
	}
	return s
}

// quantile evaluates the sketch's quantile function at p in (0, 1):
// linear interpolation between grid levels inside the grid, and a
// Gaussian-tail continuation beyond it. The continuation matters for
// MaxIID with large gangs, where every evaluation point p^(1/m) lies
// past the top grid level — clamping there would erase the tail the
// gang barrier exists to capture.
func (s *QSketch) quantile(p float64) float64 {
	t := p*SketchSize - 0.5
	switch {
	case t <= 0:
		return s.tail(p, 1, 0)
	case t >= SketchSize-1:
		return s.tail(p, SketchSize-2, SketchSize-1)
	}
	j := int(t)
	frac := t - float64(j)
	return s.Q[j]*(1-frac) + s.Q[j+1]*frac
}

// tail continues the quantile function beyond the grid, linearly in
// standard-normal quantile space through cells j0 and the anchor j1.
// A normal sketch's grid is affine in z, so the continuation is exact
// for it; for other sketches it is a light-tailed extrapolation. A flat
// pair (point mass at the boundary) degrades to a clamp.
func (s *QSketch) tail(p float64, j0, j1 int) float64 {
	dq := s.Q[j1] - s.Q[j0]
	if dq == 0 {
		return s.Q[j1]
	}
	z0, z1 := NormQuantile(sketchLevel(j0)), NormQuantile(sketchLevel(j1))
	return s.Q[j1] + dq/(z1-z0)*(NormQuantile(p)-z1)
}

// MaxIID returns the sketch of the maximum of m independent copies of the
// sketched distribution: quantile level p of the max is level p^(1/m) of
// one copy. m <= 1 returns the sketch unchanged.
func (s *QSketch) MaxIID(m int) QSketch {
	if m <= 1 {
		return *s
	}
	inv := 1 / float64(m)
	var out QSketch
	for j := range out.Q {
		out.Q[j] = s.quantile(math.Pow(sketchLevel(j), inv))
	}
	return out
}

// Moment integrates the sketch back to a (mean, variance) pair by
// midpoint quadrature over the grid.
func (s *QSketch) Moment() Moment {
	var sum, sq float64
	for _, q := range s.Q {
		sum += q
		sq += q * q
	}
	mean := sum / SketchSize
	v := sq/SketchSize - mean*mean
	if v < 0 {
		v = 0
	}
	return Moment{Mean: mean, Var: v}
}

// MaxIIDMoment is the composed gang-barrier rule: the moments of the
// maximum of m independent copies of a variable with the given moments,
// approximated as normal on the sketch grid. m <= 1 and degenerate
// inputs return the input exactly.
func MaxIIDMoment(m Moment, n int) Moment {
	if n <= 1 || m.Var <= 0 {
		return m
	}
	c := MaxIIDCoeffs(n)
	std := math.Sqrt(m.Var)
	return Moment{Mean: m.Mean + std*c.Mean, Var: m.Var * c.Var}
}

// MaxIIDCoeffs returns the sketch-rule moments of the maximum of n iid
// standard normals. Because every sketch operation — the affine quantile
// grid, linear interpolation, the z-space tail continuation, and the
// midpoint quadrature — commutes with affine maps of the quantile
// values, the general gang barrier reduces to these universal per-n
// coefficients: max of n iid N(μ, σ²) has mean μ + σ·Mean and variance
// σ²·Var. Gang sizes up to maxIIDTableSize come from an immutable table
// filled at package init, so the DAG moment pass pays constant
// arithmetic per join instead of a 32-level sketch integration.
func MaxIIDCoeffs(n int) Moment {
	if n >= 0 && n <= maxIIDTableSize {
		return maxIIDTable[n]
	}
	return computeMaxIIDCoeffs(n)
}

// maxIIDTableSize bounds the precomputed coefficient table; it covers
// every gang size the experiment specs produce (sibling counts are trial
// counts), with larger gangs falling back to the direct integration.
const maxIIDTableSize = 512

// maxIIDTable is immutable after package init, so reads are pure.
var maxIIDTable = func() (t [maxIIDTableSize + 1]Moment) {
	for n := range t {
		t[n] = computeMaxIIDCoeffs(n)
	}
	return t
}()

// computeMaxIIDCoeffs integrates the standard-normal max sketch for one
// gang size. n <= 1 is the identity by definition (the quadrature would
// otherwise round-trip {0, 1} with sketch error).
func computeMaxIIDCoeffs(n int) Moment {
	if n <= 1 {
		return Moment{Mean: 0, Var: 1}
	}
	s := SketchNormal(Moment{Mean: 0, Var: 1})
	s = s.MaxIID(n)
	return s.Moment()
}

// Varer is the optional moment interface a Dist may implement: Var
// returns the distribution's variance. The analytic estimator requires
// finite variances; distributions that do not implement Varer (or report
// an infinite variance) force Monte-Carlo fallback.
type Varer interface {
	Var() float64
}

// DistMoment extracts (mean, variance) from a distribution, reporting
// whether the distribution supports finite analytic moments.
func DistMoment(d Dist) (Moment, bool) {
	v, ok := d.(Varer)
	if !ok {
		return Moment{}, false
	}
	m := Moment{Mean: d.Mean(), Var: v.Var()}
	return m, m.IsFinite()
}
