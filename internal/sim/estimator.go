package sim

import "fmt"

// EstimatorMode names an estimator a submission may still ask for.
//
// Deprecated: Estimate has one path, analytic moments, whatever the
// mode. The type, ParseEstimator and WithEstimator stay only so that old
// submissions and the benchmark module keep working.
type EstimatorMode int

const (
	// EstimatorSegment was the incremental segment Monte-Carlo mode.
	EstimatorSegment EstimatorMode = iota
	// EstimatorAnalytic was the moment-propagation mode.
	EstimatorAnalytic
)

// ParseEstimator parses an estimator name ("segment" or "analytic"), so
// a submission naming any other estimator is still rejected.
//
// Deprecated: the mode it returns selects nothing.
func ParseEstimator(s string) (EstimatorMode, error) {
	switch s {
	case "segment":
		return EstimatorSegment, nil
	case "analytic":
		return EstimatorAnalytic, nil
	}
	return 0, fmt.Errorf("sim: unknown estimator %q (want \"segment\" or \"analytic\")", s)
}

// WithEstimator configures nothing.
//
// Deprecated: every Simulator estimates analytically; the mode is
// ignored.
func WithEstimator(EstimatorMode) Option { return func(*Simulator) {} }
