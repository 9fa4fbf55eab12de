package executor

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/replan"
	"repro/internal/sim"
)

// noteEdges are the counts the note tests render: ordinary ones and the
// extremes of int.
var noteEdges = []int{0, 1, 2, 9, 10, 64, 1000, -1, -10, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}

// TestNotesMatchFmt: every note the executor builds in its buffer reads
// exactly as the fmt format it replaced, appended after whatever the
// buffer already holds: scale up and down, a preempted node, a stage
// start with and without moved gangs, and a drift trigger.
func TestNotesMatchFmt(t *testing.T) {
	check := func(name string, got []byte, want string) {
		t.Helper()
		if string(got) != "buf|"+want {
			t.Fatalf("%s: built %q, fmt renders %q", name, got, "buf|"+want)
		}
	}
	buf := func() []byte { return []byte("buf|") }
	for _, a := range noteEdges {
		check("scale", appendNodesNote(buf(), a), fmt.Sprintf("to %d nodes", a))
		check("preempted", appendPreemptedNote(buf(), cluster.NodeID(a)), fmt.Sprintf("node %d preempted", a))
		check("drift", appendDriftNote(buf(), a), fmt.Sprintf("gpus=%d", a))
		for _, b := range noteEdges {
			for _, c := range []int{0, 1, 8, -3, math.MaxInt64} {
				stage := fmt.Sprintf("%d trials x %d iters @ %d GPUs/trial", a, b, c)
				check("stage", appendStageNote(buf(), a, b, c), stage)
				for _, moved := range []int{0, 1, 17, -1, math.MinInt64} {
					check("stage moved", appendMovedNote(appendStageNote(buf(), a, b, c), moved),
						stage+fmt.Sprintf(", %d gang(s) moved", moved))
				}
			}
		}
	}
}

// TestReplanNotesMatchFmt: the note of each replan outcome — screened,
// infeasible, adopted, kept — built in the executor's buffer reads as
// its fmt format, for empty, one-stage and extreme plans and for
// estimates and deadlines that are NaN, infinite, negative or halfway.
func TestReplanNotesMatchFmt(t *testing.T) {
	plan := func(p sim.Plan) string {
		parts := make([]string, len(p.Alloc))
		for i, a := range p.Alloc {
			parts[i] = fmt.Sprint(a)
		}
		return "(" + strings.Join(parts, ", ") + ")"
	}
	format := func(d replan.Decision) string {
		switch {
		case d.Screened:
			return fmt.Sprintf("%s: pre-screen immaterial, kept %v (analytic tail JCT %.0fs ≤ %.0fs)",
				d.Reason, plan(d.OldPlan), d.StaleEstimate.JCT, d.RemainingDeadline)
		case d.Infeasible:
			return fmt.Sprintf("%s: infeasible under remaining deadline %.0fs, kept %v", d.Reason, d.RemainingDeadline, plan(d.OldPlan))
		case d.Adopted:
			return fmt.Sprintf("%s: adopted %v (stale %v), tail JCT %.0fs ≤ %.0fs",
				d.Reason, plan(d.NewPlan), plan(d.OldPlan), d.NewEstimate.JCT, d.RemainingDeadline)
		default:
			return fmt.Sprintf("%s: kept %v", d.Reason, plan(d.OldPlan))
		}
	}
	plans := []sim.Plan{{}, {Alloc: []int{1}}, {Alloc: []int{32, 16, 8, 4}}, {Alloc: []int{0, -1, math.MaxInt64, math.MinInt64}}}
	vals := []float64{0, 0.5, 1.5, 2.5, -0.5, 1234.49, 1e21, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
	for i := 0; i < 4*len(plans)*len(vals); i++ {
		v := vals[i%len(vals)]
		d := replan.Decision{
			Reason:            []replan.Reason{replan.ReasonDrift, replan.ReasonPreemption}[i%2],
			RemainingDeadline: vals[(i/3)%len(vals)],
			OldPlan:           plans[(i/len(vals))%len(plans)],
			NewPlan:           plans[(i/7)%len(plans)],
			StaleEstimate:     sim.Estimate{JCT: v},
			NewEstimate:       sim.Estimate{JCT: -v},
		}
		switch (i / 5) % 4 {
		case 0:
			d.Screened = true
		case 1:
			d.Infeasible = true
		case 2:
			d.Adopted = true
		}
		note := []byte("stale note")
		if got, want := string(d.AppendNote(note[:0])), format(d); got != want {
			t.Fatalf("decision %+v: note %q, fmt renders %q", d, got, want)
		}
	}
}
