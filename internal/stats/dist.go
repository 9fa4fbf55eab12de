package stats

import (
	"fmt"
	"math"
)

// Dist is a one-dimensional probability distribution over non-negative
// latencies or costs. Implementations must be safe for concurrent use only
// if the supplied RNG is not shared; callers are expected to give each
// goroutine its own RNG (see RNG.Split).
type Dist interface {
	// Sample draws one value using r.
	Sample(r *RNG) float64
	// Mean returns the distribution's expected value.
	Mean() float64
	// Var returns the distribution's variance: +Inf or NaN where it is
	// not finite.
	Var() float64
	// String describes the distribution for logs and traces.
	String() string
}

// Draw samples d from r; a nil d is the point mass at zero and draws
// nothing.
//
//rbvet:noalloc
func Draw(d Dist, r *RNG) float64 {
	if d == nil {
		return 0
	}
	return d.Sample(r)
}

// Deterministic is a point-mass distribution: every sample equals Value.
// It is the zero-variance building block used when a latency source is
// disabled in an experiment (for example "instance initialization = 0 s").
type Deterministic struct {
	Value float64
}

// Sample returns the constant value.
func (d Deterministic) Sample(*RNG) float64 { return d.Value }

// Mean returns the constant value.
func (d Deterministic) Mean() float64 { return d.Value }

func (d Deterministic) String() string { return fmt.Sprintf("det(%g)", d.Value) }

// Normal is a normal distribution truncated at zero: negative draws are
// clamped to 0, matching how the paper samples per-iteration training
// latency (mean mu, straggler variance sigma) without allowing negative
// time.
type Normal struct {
	Mu    float64
	Sigma float64
}

// Sample draws max(0, N(mu, sigma)).
func (n Normal) Sample(r *RNG) float64 {
	v := n.Mu + n.Sigma*r.NormFloat64()
	if v < 0 {
		return 0
	}
	return v
}

// Mean returns mu. For the small sigma/mu ratios used in the experiments
// the truncation bias is negligible; the analytic estimator's tolerance
// tests bound the residual.
func (n Normal) Mean() float64 { return n.Mu }

func (n Normal) String() string { return fmt.Sprintf("normal(mu=%g, sigma=%g)", n.Mu, n.Sigma) }

// LogNormal is a log-normal distribution parameterized by the mean and
// standard deviation of the underlying normal. It models heavy-tailed cloud
// provisioning delays.
type LogNormal struct {
	Mu    float64 // mean of log(X)
	Sigma float64 // stddev of log(X)
}

// Sample draws exp(N(mu, sigma)).
func (l LogNormal) Sample(r *RNG) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}

// Mean returns exp(mu + sigma^2/2).
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

func (l LogNormal) String() string {
	return fmt.Sprintf("lognormal(mu=%g, sigma=%g)", l.Mu, l.Sigma)
}

// LogNormalFromMoments returns the LogNormal whose mean and standard
// deviation (of the distribution itself, not the log) equal mean and
// stddev. It panics if mean <= 0 or stddev < 0.
func LogNormalFromMoments(mean, stddev float64) LogNormal {
	if mean <= 0 {
		panic("stats: LogNormalFromMoments requires mean > 0")
	}
	if stddev < 0 {
		panic("stats: LogNormalFromMoments requires stddev >= 0")
	}
	if stddev == 0 {
		// Degenerate: represent as a very tight log-normal.
		return LogNormal{Mu: math.Log(mean), Sigma: 0}
	}
	cv2 := (stddev / mean) * (stddev / mean)
	sigma2 := math.Log(1 + cv2)
	return LogNormal{
		Mu:    math.Log(mean) - sigma2/2,
		Sigma: math.Sqrt(sigma2),
	}
}

// Uniform is a uniform distribution on [Lo, Hi).
type Uniform struct {
	Lo, Hi float64
}

// Sample draws uniformly from [Lo, Hi).
func (u Uniform) Sample(r *RNG) float64 { return u.Lo + (u.Hi-u.Lo)*r.Float64() }

// Mean returns the midpoint.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

func (u Uniform) String() string { return fmt.Sprintf("uniform[%g, %g)", u.Lo, u.Hi) }

// Exponential is an exponential distribution with the given Mean. It models
// memoryless provider queueing delay.
type Exponential struct {
	MeanValue float64
}

// Sample draws from Exp(1/Mean).
func (e Exponential) Sample(r *RNG) float64 {
	u := r.Float64()
	// Guard against log(0).
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -e.MeanValue * math.Log(1-u)
}

// Mean returns the configured mean.
func (e Exponential) Mean() float64 { return e.MeanValue }

func (e Exponential) String() string { return fmt.Sprintf("exp(mean=%g)", e.MeanValue) }

// Pareto is a Pareto (power-law) distribution with scale x_m and shape
// alpha: P(X > x) = (x_m/x)^alpha for x >= x_m. It models heavy-tailed
// straggler latencies, where a small fraction of iterations take far
// longer than the body — the regime in which synchronization barriers
// hurt most. Construct with NewPareto to validate the parameters.
type Pareto struct {
	Scale float64 // x_m, the minimum value
	Alpha float64 // tail index; mean is finite only for alpha > 1
}

// NewPareto returns a validated Pareto distribution. Alpha must exceed 1
// so the mean exists (the simulator and planner rely on finite means).
func NewPareto(scale, alpha float64) (Pareto, error) {
	if scale <= 0 {
		return Pareto{}, fmt.Errorf("stats: Pareto scale %v must be positive", scale)
	}
	if alpha <= 1 {
		return Pareto{}, fmt.Errorf("stats: Pareto alpha %v must exceed 1 for a finite mean", alpha)
	}
	return Pareto{Scale: scale, Alpha: alpha}, nil
}

// Sample draws via inverse transform: x_m / U^(1/alpha).
func (p Pareto) Sample(r *RNG) float64 {
	u := r.Float64()
	if u == 0 {
		u = math.Nextafter(0, 1)
	}
	return p.Scale / math.Pow(u, 1/p.Alpha)
}

// Mean returns alpha·x_m/(alpha−1).
func (p Pareto) Mean() float64 { return p.Alpha * p.Scale / (p.Alpha - 1) }

func (p Pareto) String() string { return fmt.Sprintf("pareto(xm=%g, alpha=%g)", p.Scale, p.Alpha) }

// Scaled wraps a distribution and multiplies every sample and the mean by
// Factor. It lets the simulator reuse a profiled per-iteration latency
// distribution at a different allocation via a scaling function.
type Scaled struct {
	D      Dist
	Factor float64
}

// Sample draws from the wrapped distribution and scales it.
func (s Scaled) Sample(r *RNG) float64 { return s.Factor * s.D.Sample(r) }

// Mean returns Factor times the wrapped mean.
func (s Scaled) Mean() float64 { return s.Factor * s.D.Mean() }

func (s Scaled) String() string { return fmt.Sprintf("%g*%s", s.Factor, s.D) }

// Var returns 0: a point mass has no spread.
func (d Deterministic) Var() float64 { return 0 }

// Var returns sigma². Like Mean, it ignores the truncation at zero,
// which is negligible at the sigma/mu ratios the profiles use; the
// analytic estimator's tolerance tests bound the residual bias.
func (n Normal) Var() float64 { return n.Sigma * n.Sigma }

// Var returns (exp(sigma²)−1)·Mean².
func (l LogNormal) Var() float64 {
	m := l.Mean()
	return (math.Exp(l.Sigma*l.Sigma) - 1) * m * m
}

// Var returns (Hi−Lo)²/12.
func (u Uniform) Var() float64 {
	w := u.Hi - u.Lo
	return w * w / 12
}

// Var returns Mean².
func (e Exponential) Var() float64 { return e.MeanValue * e.MeanValue }

// Var returns the Pareto variance, which is finite only for alpha > 2;
// below that it returns +Inf, and DistMoment reports no moments.
func (p Pareto) Var() float64 {
	if p.Alpha <= 2 {
		return math.Inf(1)
	}
	am1 := p.Alpha - 1
	return p.Scale * p.Scale * p.Alpha / (am1 * am1 * (p.Alpha - 2))
}

// Var returns Factor² times the wrapped variance.
func (s Scaled) Var() float64 { return s.Factor * s.Factor * s.D.Var() }
