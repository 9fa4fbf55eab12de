package planner_test

import (
	"testing"

	"repro/internal/planner"
	"repro/internal/sim"
)

// TestMergedDescentsMatchIndependent: on the metamorphic corpus, in both
// estimator modes, the merged search returns exactly what the unmerged
// reference returns — plan, bit-identical JCT and cost, and error — and
// so does each of its descents, and merging saves estimate calls
// somewhere, so the corpus exercises it. The per-descent results are
// cloned as they are recorded and compared at once; the search results
// are compared only after every merged search ran, so a returned plan
// that aliased pooled scratch would have been overwritten by a later
// search.
func TestMergedDescentsMatchIndependent(t *testing.T) {
	type outcome struct {
		name      string
		got, want planner.Result
		gerr, err error
	}
	var outs []outcome
	var saved int64
	for _, sc := range metamorphicScenarios(t, 7, 12) {
		for _, mode := range []sim.EstimatorMode{sim.EstimatorSegment, sim.EstimatorAnalytic} {
			sc.Estimator = mode
			merged, _ := newPlanner(t, sc, sc.Profile, 7, 0.01)
			ref, _ := newPlanner(t, sc, sc.Profile, 7, 0.01)
			o := outcome{name: sc.String() + " " + mode.String()}
			var got, want []planner.Result
			o.got, got, o.gerr = planner.MergedSearch(merged)
			o.want, want, o.err = planner.ReferenceSearch(ref)
			if !planner.SameDescents(got, want) {
				t.Errorf("%s: merged descents ended at %v, independent descents at %v", o.name, got, want)
			}
			outs = append(outs, o)
			saved += ref.EstimateCalls() - merged.EstimateCalls()
		}
	}
	for _, o := range outs {
		if !planner.SameResult(o.got, o.gerr, o.want, o.err) {
			t.Errorf("%s: merged search gave %v %+v (err %v), independent descents %v %+v (err %v)",
				o.name, o.got.Plan, o.got.Estimate, o.gerr, o.want.Plan, o.want.Estimate, o.err)
		}
	}
	if saved <= 0 {
		t.Fatalf("merging saved %d estimate calls over the corpus; no descent merged", saved)
	}
	t.Logf("%d searches, %d estimate calls saved by merging", len(outs), saved)
}
