package sim

import "fmt"

// EstimatorMode selects how Estimate evaluates a plan's stage segments:
// by recombining their cached Monte-Carlo sample vectors, or by
// propagating analytic moments through them. Both modes read the same
// stage kernels, so under fully deterministic latency
// profiles they agree to float round-off, and under stochastic profiles
// to Monte-Carlo tolerance plus the moment-matching bias.
type EstimatorMode int

const (
	// EstimatorSegment (the default) derives each stage segment's RNG
	// streams from the tuple (stage, alloc, previous instance count) and
	// caches the segment's sampled duration/timing vector. A candidate
	// plan that changes one stage re-samples only that segment and
	// recombines the rest from cache, making greedy planning incremental.
	// Because candidate plans that share a tuple draw identical samples
	// (common random numbers), the noise in greedy pairwise comparisons
	// is correlated away rather than added in quadrature.
	EstimatorSegment EstimatorMode = iota
	// EstimatorAnalytic draws no samples at all: it propagates
	// (mean, variance) moments through the stage segments in closed form
	// (segment.moments) and recombines them against an analytic
	// billing model, yielding an estimate in microseconds. It agrees with
	// the segment mode exactly under deterministic latencies and to
	// statistical tolerance otherwise. Plans whose latencies lack finite
	// moments (Pareto alpha <= 2, opaque dists without Var) fall back to
	// EstimatorSegment Monte-Carlo transparently.
	EstimatorAnalytic
)

// String renders the mode as its flag spelling.
func (m EstimatorMode) String() string {
	switch m {
	case EstimatorSegment:
		return "segment"
	case EstimatorAnalytic:
		return "analytic"
	}
	return fmt.Sprintf("EstimatorMode(%d)", int(m))
}

// ParseEstimator parses a -estimator flag value ("segment" or
// "analytic").
func ParseEstimator(s string) (EstimatorMode, error) {
	switch s {
	case "segment":
		return EstimatorSegment, nil
	case "analytic":
		return EstimatorAnalytic, nil
	}
	return 0, fmt.Errorf("sim: unknown estimator %q (want \"segment\" or \"analytic\")", s)
}

// WithEstimator selects the estimator mode. The default is
// EstimatorSegment; see EstimatorMode for the trade-off.
func WithEstimator(m EstimatorMode) Option { return func(s *Simulator) { s.estimator = m } }

// Estimator returns the simulator's estimator mode.
func (s *Simulator) Estimator() EstimatorMode { return s.estimator }
