package planner_test

import (
	"testing"

	"repro/internal/planner"
)

// TestMergedDescentsMatchIndependent: on the metamorphic corpus the
// merged search returns exactly what the unmerged, unpruned
// reference returns — plan, bit-identical JCT and cost, and error — and
// so does each of its descents. Merging saves estimate calls in the
// descents somewhere, and the static enumeration's cost floor skips
// sizes somewhere, so the corpus exercises both. The per-descent results are
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
	var saved, pruned int64
	for _, sc := range metamorphicScenarios(t, 7, 12) {
		merged, _ := newPlanner(t, sc, sc.Profile, 7, 0.01)
		ref, _ := newPlanner(t, sc, sc.Profile, 7, 0.01)
		// The static enumerations on their own, to tell the floor's
		// savings from the descents'.
		static, _ := newPlanner(t, sc, sc.Profile, 7, 0.01)
		refStatic, _ := newPlanner(t, sc, sc.Profile, 7, 0.01)
		gotStatic, gerr := static.PlanStatic()
		wantStatic, err := planner.ReferencePlanStatic(refStatic)
		if !planner.SameResult(gotStatic, gerr, wantStatic, err) {
			t.Errorf("%s: pruned static enumeration gave %v %+v (err %v), unpruned %v %+v (err %v)",
				sc, gotStatic.Plan, gotStatic.Estimate, gerr, wantStatic.Plan, wantStatic.Estimate, err)
		}
		staticSaved := refStatic.EstimateCalls() - static.EstimateCalls()
		pruned += staticSaved
		o := outcome{name: sc.String()}
		var got, want []planner.Result
		o.got, got, o.gerr = planner.MergedSearch(merged)
		o.want, want, o.err = planner.ReferenceSearch(ref)
		if !planner.SameDescents(got, want) {
			t.Errorf("%s: merged descents ended at %v, independent descents at %v", o.name, got, want)
		}
		outs = append(outs, o)
		saved += ref.EstimateCalls() - merged.EstimateCalls() - staticSaved
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
	if pruned <= 0 {
		t.Fatalf("the static cost floor skipped %d sizes over the corpus; it never pruned", pruned)
	}
	t.Logf("%d searches, %d estimate calls saved by merging, %d static sizes skipped by the cost floor", len(outs), saved, pruned)
}
