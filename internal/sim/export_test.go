package sim

import "repro/internal/stats"

// EstimateMC is the segment Monte-Carlo oracle's estimate of p on s,
// samples draws per segment from root's streams: the external tests
// that hold the analytic estimate to Algorithm 1 reach the oracle here.
func EstimateMC(s *Simulator, samples int, root *stats.RNG, p Plan) (Estimate, error) {
	return newMonteCarlo(s, samples, root).estimate(p)
}
