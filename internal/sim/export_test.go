package sim

// EstimateMC is the Monte-Carlo estimate Estimate falls back to when a
// latency has no finite moments, without the plan memo: the tests that
// check the sampling path itself reach it here.
func (s *Simulator) EstimateMC(p Plan) (Estimate, error) { return s.estimateMC(p) }

// SampleFills returns how many of s's table segments have their Monte-
// Carlo sample vector filled.
func SampleFills(s *Simulator) int {
	_, samples, _ := tableCounts(s)
	return samples
}

// BreakdownMC is the Monte-Carlo decomposition Breakdown falls back to
// when a latency has no finite moments.
func (s *Simulator) BreakdownMC(p Plan) ([]StageEstimate, error) { return s.breakdownMC(p) }
