package sim_test

import (
	"math"
	"sort"
	"testing"

	"repro/internal/harness"
	"repro/internal/planner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestAnalyticErrorOnCorpus bounds the analytic estimator's error on the
// whole harness corpus rather than on fixtures: for every scenario of
// harness.Generate(1, 0..127) the planner can plan, the chosen
// PlanElastic plan's analytic estimate is compared with a 2,000-sample
// run of the segment Monte-Carlo oracle (EstimateMC), and the relative
// JCT and cost errors are summarized. The table is recorded in
// results/analytic_corpus_error.md.
func TestAnalyticErrorOnCorpus(t *testing.T) {
	const (
		seed, corpus = 1, 128
		mcSamples    = 2000
		// Bounds on the p95 relative error, set from the measurement in
		// results/analytic_corpus_error.md (JCT 0.38 %, cost 0.033 %)
		// with headroom for corpus drift.
		maxJCTP95, maxCostP95 = 0.01, 0.002
	)
	var jctErr, costErr, jctSE, costSE []float64
	planned := 0
	for i := 0; i < corpus; i++ {
		sc := harness.Generate(seed, i)
		profile := sim.ModelTrainProfile{Model: sc.Model, Batch: sc.Model.BaseBatch, GPUsPerNode: sc.Profile.Instance.GPUs}
		sm, err := sim.New(sc.Spec, profile, sc.Profile, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		p := &planner.Planner{Sim: sm, Deadline: sm.StaticClusterJCT(sc.MaxGPUs) * sc.DeadlineFactor, MaxGPUs: sc.MaxGPUs}
		res, err := p.PlanElastic()
		if err != nil {
			continue
		}
		planned++
		ana := res.Estimate
		ref, err := sim.EstimateMC(sm, mcSamples, stats.NewRNG(seed), res.Plan)
		if err != nil {
			t.Fatal(err)
		}
		jctErr = append(jctErr, math.Abs(ana.JCT-ref.JCT)/ref.JCT)
		costErr = append(costErr, math.Abs(ana.Cost-ref.Cost)/ref.Cost)
		jctSE = append(jctSE, ref.JCTStd/math.Sqrt(mcSamples)/ref.JCT)
		costSE = append(costSE, ref.CostStd/math.Sqrt(mcSamples)/ref.Cost)
	}
	if len(jctErr) == 0 {
		t.Fatal("no scenario was planned")
	}
	for _, v := range [][]float64{jctErr, costErr, jctSE, costSE} {
		sort.Float64s(v)
	}
	pct := func(v []float64, p float64) float64 { return 100 * stats.Percentile(v, p) }
	t.Logf("%d of %d scenarios planned and scored", planned, corpus)
	t.Logf("| metric | p50 | p95 | max | MC std. error p50 | MC std. error max |")
	t.Logf("| JCT  | %.3f %% | %.3f %% | %.3f %% | %.3f %% | %.3f %% |",
		pct(jctErr, 0.5), pct(jctErr, 0.95), pct(jctErr, 1), pct(jctSE, 0.5), pct(jctSE, 1))
	t.Logf("| cost | %.3f %% | %.3f %% | %.3f %% | %.3f %% | %.3f %% |",
		pct(costErr, 0.5), pct(costErr, 0.95), pct(costErr, 1), pct(costSE, 0.5), pct(costSE, 1))
	if p95 := stats.Percentile(jctErr, 0.95); p95 > maxJCTP95 {
		t.Errorf("analytic JCT error p95 %.3f %% exceeds %.1f %%", 100*p95, 100*maxJCTP95)
	}
	if p95 := stats.Percentile(costErr, 0.95); p95 > maxCostP95 {
		t.Errorf("analytic cost error p95 %.3f %% exceeds %.1f %%", 100*p95, 100*maxCostP95)
	}
}
