package executor

import (
	"math"
	"testing"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
)

// TestGrowthColumnMatchesObserveOn: on every zoo model, the accuracy
// iterEnd observes through the run's growth column equals
// Model.ObserveOn bit for bit at every cumulative iteration count from 0
// to MaxIters, for asymptotes inside and outside [0, 1], and both leave
// the stream in the same state.
func TestGrowthColumnMatchesObserveOn(t *testing.T) {
	s := spec.MustSHA(8, 2, 12, 2)
	for _, m := range model.Zoo() {
		h := newHarness(t, cloud.PerInstance, 0, 0, 1)
		job, err := Start(runConfig(t, h, s, sim.Uniform(8, s.NumStages()), m, 1))
		if err != nil {
			t.Fatal(err)
		}
		growth := job.r.growth
		if len(growth) != s.MaxIters()+1 {
			t.Fatalf("%s: growth column holds %d counts, want MaxIters+1 = %d", m.Name, len(growth), s.MaxIters()+1)
		}
		got, want := stats.NewRNG(7), stats.NewRNG(7)
		for k := range growth {
			for _, asym := range []float64{0, 0.31, 0.76, 0.999, 1.4} {
				g := m.ObserveGrown(asym, growth[k], got)
				w := m.ObserveOn(asym, k, want)
				if math.Float64bits(g) != math.Float64bits(w) || *got != *want {
					t.Fatalf("%s k=%d asym=%v: column path %v, ObserveOn %v", m.Name, k, asym, g, w)
				}
			}
		}
	}
}
