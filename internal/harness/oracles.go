package harness

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/model"
	"repro/internal/replan"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trial"
)

// Violation is one invariant breach found by an oracle.
type Violation struct {
	// Oracle names the invariant family that fired.
	Oracle string
	// Detail describes the breach concretely.
	Detail string
}

// String renders the violation for reports.
func (v Violation) String() string { return v.Oracle + ": " + v.Detail }

// Oracle is one system-wide invariant checked after every scenario run.
type Oracle struct {
	// Name identifies the oracle in reports.
	Name string
	// Check inspects the run's artifacts and returns breach details
	// (empty when the invariant holds).
	Check func(a *Artifacts) []string
}

// DefaultOracles returns the full oracle library, in the order violations
// are reported.
func DefaultOracles() []Oracle {
	return []Oracle{
		{Name: "cost-conservation", Check: checkCostConservation},
		{Name: "usage-metering", Check: checkUsageMetering},
		{Name: "gang-integrity", Check: checkGangIntegrity},
		{Name: "no-lost-trials", Check: checkNoLostTrials},
		{Name: "deadline", Check: checkDeadline},
		{Name: "replan-consistency", Check: checkReplanConsistency},
		{Name: "schedule-sanity", Check: checkScheduleSanity},
		{Name: "grant-consistency", Check: checkGrantConsistency},
	}
}

// CheckAll runs every oracle over the artifacts and collects violations.
func CheckAll(a *Artifacts, oracles []Oracle) []Violation {
	var out []Violation
	for _, o := range oracles {
		for _, d := range o.Check(a) {
			out = append(out, Violation{Oracle: o.Name, Detail: d})
		}
	}
	return out
}

// close reports near-equality with an absolute floor (billing sums are
// dollars; traces accumulate thousands of float adds).
func closeTo(a, b float64) bool {
	tol := 1e-6 + 1e-9*math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol
}

// checkCostConservation reprices the provider's instance ledger from
// first principles and requires the realized bill to match it exactly:
// metered cost = Σ pricing(instance lifetime, usage) + data ingress, the
// per-stage cost attribution sums to the total, and billed GPU-seconds
// dominate busy GPU-seconds (you cannot consume more capacity than you
// paid for).
func checkCostConservation(a *Artifacts) []string {
	var out []string
	now := a.finishedAt()
	pricing := a.Scenario.Profile.Pricing

	var compute, billedGPUSec float64
	billed := 0
	for _, in := range a.Instances {
		if !in.Billing() {
			continue
		}
		billed++
		compute += pricing.InstanceCost(in.Type, in.BilledLifetime(now), in.GPUSecondsUsed)
		billedGPUSec += in.BilledLifetime(now) * float64(in.Type.GPUs)
	}
	if total := compute + a.DataCost; !closeTo(total, a.Result.Cost) {
		out = append(out, fmt.Sprintf("repriced ledger %v != billed cost %v", total, a.Result.Cost))
	}
	if wantData := float64(billed) * pricing.DataIngressCost(a.Scenario.Profile.DatasetGB); !closeTo(wantData, a.DataCost) {
		out = append(out, fmt.Sprintf("data ingress %v != %d instances x unit price (%v)", a.DataCost, billed, wantData))
	}

	busy := a.Recorder.BusyGPUSeconds()
	if busy > billedGPUSec+1e-6 {
		out = append(out, fmt.Sprintf("busy GPU-seconds %v exceed billed GPU-seconds %v", busy, billedGPUSec))
	}
	if u := a.Result.Utilization; u < 0 || u > 1+1e-9 {
		out = append(out, fmt.Sprintf("utilization %v outside [0,1]", u))
	}
	if billedGPUSec > 0 && !closeTo(a.Result.Utilization, busy/billedGPUSec) {
		out = append(out, fmt.Sprintf("utilization %v != busy/billed %v", a.Result.Utilization, busy/billedGPUSec))
	}

	var stageSum float64
	for _, row := range a.Result.Schedule {
		stageSum += row.Cost
	}
	if !closeTo(stageSum, a.Result.Cost) {
		out = append(out, fmt.Sprintf("stage costs sum to %v, total bill is %v", stageSum, a.Result.Cost))
	}
	return out
}

// checkUsageMetering cross-checks the two independent usage meters: the
// trace's busy accounting and the provider's per-instance GPU-second
// meter must agree, no instance may meter more usage than its capacity ×
// lifetime allows, and never-billed instances must meter nothing.
func checkUsageMetering(a *Artifacts) []string {
	var out []string
	now := a.finishedAt()
	var used float64
	for _, in := range a.Instances {
		used += in.GPUSecondsUsed
		if !in.Billing() && in.GPUSecondsUsed != 0 {
			out = append(out, fmt.Sprintf("instance %d metered %v GPU-seconds without ever billing", in.ID, in.GPUSecondsUsed))
		}
		if capacity := in.BilledLifetime(now) * float64(in.Type.GPUs); in.GPUSecondsUsed > capacity+1e-6 {
			out = append(out, fmt.Sprintf("instance %d metered %v GPU-seconds, capacity x lifetime is %v", in.ID, in.GPUSecondsUsed, capacity))
		}
	}
	if busy := a.Recorder.BusyGPUSeconds(); !closeTo(used, busy) {
		out = append(out, fmt.Sprintf("provider usage meter %v != trace busy meter %v", used, busy))
	}
	return out
}

// checkGangIntegrity verifies every placement the executor realized
// against the allocation plan: each trial start carries exactly the
// stage's per-trial GPU allocation, and — when the placement controller
// is active — the gang spans the minimal node set (workers are never
// split wider than the plan requires).
func checkGangIntegrity(a *Artifacts) []string {
	var out []string
	rows := a.Result.Schedule
	for _, e := range a.Recorder.Filter(trace.KindTrialStart) {
		if e.Stage < 0 || e.Stage >= len(rows) {
			out = append(out, fmt.Sprintf("trial %d start in unknown stage %d", e.Trial, e.Stage))
			continue
		}
		if want := rows[e.Stage].GPUsPerTrial; e.GPUs != want {
			out = append(out, fmt.Sprintf("trial %d started with %d GPUs in stage %d, plan allocates %d", e.Trial, e.GPUs, e.Stage, want))
		}
		if e.Nodes < 1 || e.Nodes > e.GPUs {
			out = append(out, fmt.Sprintf("trial %d gang spans %d nodes for %d GPUs", e.Trial, e.Nodes, e.GPUs))
			continue
		}
		minSpread := model.MinNodes(e.GPUs, a.GPN)
		if a.Scenario.DisablePlacement {
			if e.Nodes < minSpread {
				out = append(out, fmt.Sprintf("trial %d gang packs %d GPUs on %d nodes below physical minimum %d", e.Trial, e.GPUs, e.Nodes, minSpread))
			}
		} else if e.Nodes != minSpread {
			out = append(out, fmt.Sprintf("trial %d gang split across %d nodes in stage %d, co-location needs %d", e.Trial, e.Nodes, e.Stage, minSpread))
		}
	}
	return out
}

// checkNoLostTrials verifies tournament integrity end to end: every trial
// ends Completed or Terminated, exactly one wins, the winner trained
// exactly the full budget, and every terminated trial trained exactly its
// cumulative per-stage iteration budget through the stage its recorded
// kill happened in — even across preemption recovery. Per stage, every
// participant starts, iterates at least the stage budget, and finishes
// exactly once.
func checkNoLostTrials(a *Artifacts) []string {
	var out []string
	sp := a.Scenario.Spec

	cum := make([]int, sp.NumStages())
	total := 0
	for i := 0; i < sp.NumStages(); i++ {
		total += sp.Stage(i).Iters
		cum[i] = total
	}

	killStage := make(map[int]int)
	for _, e := range a.Recorder.Filter(trace.KindTrialKill) {
		if _, dup := killStage[e.Trial]; dup {
			out = append(out, fmt.Sprintf("trial %d killed twice", e.Trial))
		}
		killStage[e.Trial] = e.Stage
	}

	if got, want := len(a.Result.Trials), sp.TotalTrials(); got != want {
		out = append(out, fmt.Sprintf("%d trials in result, spec has %d", got, want))
	}
	completed := 0
	for _, t := range a.Result.Trials {
		switch t.State() {
		case trial.Completed:
			completed++
			if t.CumIters() != sp.MaxIters() {
				out = append(out, fmt.Sprintf("winner %d trained %d iters, budget is %d", t.ID(), t.CumIters(), sp.MaxIters()))
			}
			if _, killed := killStage[int(t.ID())]; killed {
				out = append(out, fmt.Sprintf("winner %d has a recorded kill", t.ID()))
			}
		case trial.Terminated:
			s, ok := killStage[int(t.ID())]
			if !ok {
				out = append(out, fmt.Sprintf("trial %d terminated without a recorded kill (lost)", t.ID()))
				continue
			}
			if t.CumIters() != cum[s] {
				out = append(out, fmt.Sprintf("trial %d killed at stage %d with %d iters, stage budget is %d", t.ID(), s, t.CumIters(), cum[s]))
			}
		default:
			out = append(out, fmt.Sprintf("trial %d left in state %v", t.ID(), t.State()))
		}
	}
	if completed != 1 {
		out = append(out, fmt.Sprintf("%d completed trials, want exactly 1", completed))
	}
	if want := sp.TotalTrials() - 1; len(killStage) != want {
		out = append(out, fmt.Sprintf("%d kill events, want %d", len(killStage), want))
	}

	// Per-stage participation from the event log.
	type key struct{ trial, stage int }
	starts := make(map[key]int)
	iters := make(map[key]int)
	dones := make(map[key]int)
	for tid, evs := range a.Recorder.ByTrial() {
		for _, e := range evs {
			k := key{tid, e.Stage}
			switch e.Kind {
			case trace.KindTrialStart:
				starts[k]++
			case trace.KindTrialIter:
				iters[k]++
			case trace.KindTrialDone:
				dones[k]++
			}
		}
	}
	doneKeys := make([]key, 0, len(dones))
	for k := range dones {
		doneKeys = append(doneKeys, k)
	}
	sort.Slice(doneKeys, func(i, j int) bool {
		if doneKeys[i].stage != doneKeys[j].stage {
			return doneKeys[i].stage < doneKeys[j].stage
		}
		return doneKeys[i].trial < doneKeys[j].trial
	})
	for i := 0; i < sp.NumStages(); i++ {
		st := sp.Stage(i)
		participants := 0
		for _, k := range doneKeys {
			if k.stage != i {
				continue
			}
			n := dones[k]
			participants++
			if n != 1 {
				out = append(out, fmt.Sprintf("trial %d finished stage %d %d times", k.trial, i, n))
			}
			if starts[k] < 1 {
				out = append(out, fmt.Sprintf("trial %d finished stage %d without starting", k.trial, i))
			}
			if got := iters[k]; got < st.Iters || got > starts[k]*st.Iters {
				out = append(out, fmt.Sprintf("trial %d ran %d iterations in stage %d (budget %d, %d starts)", k.trial, got, i, st.Iters, starts[k]))
			}
		}
		if participants != st.Trials {
			out = append(out, fmt.Sprintf("stage %d finished %d trials, spec wants %d", i, participants, st.Trials))
		}
	}
	return out
}

// checkDeadline verifies the planner's contract: whenever it returned a
// plan, the plan is structurally valid, respects the peak-GPU cap, and
// its predicted JCT meets the sampled deadline.
func checkDeadline(a *Artifacts) []string {
	if !a.Planned {
		return nil
	}
	var out []string
	if err := a.Plan.Validate(a.Scenario.Spec.NumStages()); err != nil {
		out = append(out, fmt.Sprintf("planner produced invalid plan: %v", err))
	}
	if a.Plan.Max() > a.Scenario.MaxGPUs {
		out = append(out, fmt.Sprintf("plan peak %d GPUs exceeds cap %d", a.Plan.Max(), a.Scenario.MaxGPUs))
	}
	if a.Estimate.JCT > a.Deadline+1e-9 {
		out = append(out, fmt.Sprintf("planner accepted JCT %v over deadline %v", a.Estimate.JCT, a.Deadline))
	}
	// Replanning contract: an adopted tail must meet the remaining
	// deadline it was planned under, and an infeasible-after-drift label
	// needs an identifiable cause — under a deterministic on-profile run
	// the detector never triggers, so a declared infeasibility with no
	// drift, preemption, scatter or latency noise is a planner-side bug.
	for _, d := range a.Result.Replans {
		if d.Adopted && d.NewEstimate.JCT > d.RemainingDeadline+1e-9 {
			out = append(out, fmt.Sprintf("replan %d adopted tail JCT %v over remaining deadline %v", d.Seq, d.NewEstimate.JCT, d.RemainingDeadline))
		}
		if d.Infeasible && !driftExcused(a) {
			out = append(out, fmt.Sprintf("replan %d declared infeasible without drift, preemption, scatter or noise", d.Seq))
		}
	}
	return out
}

// driftExcused reports whether an infeasible-after-drift replan outcome
// has an identifiable cause in this run: injected drift, a preemption,
// the scatter ablation (slower than the profiled co-located latency), or
// stochastic iteration latency.
func driftExcused(a *Artifacts) bool {
	return a.Scenario.Drift.Active() || a.Result.Preemptions > 0 ||
		a.Scenario.DisablePlacement || a.Scenario.Model.IterNoiseStd > 0
}

// checkReplanConsistency verifies the replan loop's bookkeeping end to
// end: decisions and trace events correspond one-to-one, every decision
// has its trigger evidence (a drift_trigger event or a preemption),
// decisions respect the cooldown, each rewrites only future stages within
// the GPU cap, the decision chain links the initial plan to the final
// plan, and the executed schedule reflects the final plan. Runs without a
// controller must show no replan activity at all.
func checkReplanConsistency(a *Artifacts) []string {
	var out []string
	reps := a.Result.Replans
	events := a.Recorder.Filter(trace.KindReplan)
	triggers := a.Recorder.Filter(trace.KindDriftTrigger)

	if !a.Scenario.ReplanEnabled || !a.Planned {
		if len(reps) > 0 || len(events) > 0 || len(triggers) > 0 {
			out = append(out, fmt.Sprintf("%d replan decisions, %d replan events, %d drift triggers without a controller",
				len(reps), len(events), len(triggers)))
		}
		return out
	}

	nStages := a.Scenario.Spec.NumStages()
	final := a.Result.FinalPlan
	if err := final.Validate(nStages); err != nil {
		out = append(out, fmt.Sprintf("final plan invalid: %v", err))
		return out
	}
	// The executed schedule must reflect the final plan: replans never
	// rewrite a stage that has started, so every realized row matches it.
	for _, row := range a.Result.Schedule {
		if row.Stage < 0 || row.Stage >= nStages {
			continue // schedule-sanity reports malformed rows
		}
		if want := sim.GPUsPerTrial(final.Alloc[row.Stage], row.Trials); row.GPUsPerTrial != want {
			out = append(out, fmt.Sprintf("stage %d executed %d GPUs/trial, final plan implies %d", row.Stage, row.GPUsPerTrial, want))
		}
	}

	if len(events) != len(reps) {
		out = append(out, fmt.Sprintf("%d replan trace events for %d decisions", len(events), len(reps)))
	}

	prev := a.Plan
	for i, d := range reps {
		if d.Seq != i {
			out = append(out, fmt.Sprintf("decision %d carries seq %d", i, d.Seq))
		}
		if i < len(events) {
			if e := events[i]; float64(e.At) != float64(d.At) || e.Stage != d.Stage {
				out = append(out, fmt.Sprintf("decision %d at (%v, stage %d) but trace event at (%v, stage %d)", i, d.At, d.Stage, e.At, e.Stage))
			}
		}
		if i > 0 {
			if dt := float64(d.At - reps[i-1].At); dt < a.Scenario.ReplanCooldown-1e-9 {
				out = append(out, fmt.Sprintf("decisions %d and %d only %vs apart, cooldown is %vs", i-1, i, dt, a.Scenario.ReplanCooldown))
			}
		}
		switch d.Reason {
		case replan.ReasonDrift:
			found := false
			for _, t := range triggers {
				if t.At == d.At && t.Stage == d.Stage {
					found = true
					break
				}
			}
			if !found {
				out = append(out, fmt.Sprintf("drift decision %d has no drift_trigger event at (%v, stage %d)", i, d.At, d.Stage))
			}
		case replan.ReasonPreemption:
			if a.Result.Preemptions == 0 {
				out = append(out, fmt.Sprintf("preemption decision %d in a run with zero preemptions", i))
			}
		default:
			out = append(out, fmt.Sprintf("decision %d has unknown reason %q", i, d.Reason))
		}
		if d.Stage < 0 || d.Stage >= nStages-1 {
			out = append(out, fmt.Sprintf("decision %d replans from stage %d of %d (no tail)", i, d.Stage, nStages))
			continue
		}
		if err := d.NewPlan.Validate(nStages); err != nil {
			out = append(out, fmt.Sprintf("decision %d produced invalid plan: %v", i, err))
			continue
		}
		if !d.OldPlan.Equal(prev) {
			out = append(out, fmt.Sprintf("decision %d starts from %v, chain expects %v", i, d.OldPlan, prev))
		}
		for j := 0; j <= d.Stage; j++ {
			if d.NewPlan.Alloc[j] != d.OldPlan.Alloc[j] {
				out = append(out, fmt.Sprintf("decision %d rewrote executed stage %d (%d -> %d GPUs)", i, j, d.OldPlan.Alloc[j], d.NewPlan.Alloc[j]))
				break
			}
		}
		if d.NewPlan.Max() > a.Scenario.MaxGPUs {
			out = append(out, fmt.Sprintf("decision %d plan peak %d GPUs exceeds cap %d", i, d.NewPlan.Max(), a.Scenario.MaxGPUs))
		}
		if !d.Adopted && !d.NewPlan.Equal(d.OldPlan) {
			out = append(out, fmt.Sprintf("decision %d not adopted but plan changed %v -> %v", i, d.OldPlan, d.NewPlan))
		}
		if d.Adopted && d.Infeasible {
			out = append(out, fmt.Sprintf("decision %d both adopted and infeasible", i))
		}
		prev = d.NewPlan
	}
	if !final.Equal(prev) {
		out = append(out, fmt.Sprintf("final plan %v does not close the decision chain (expected %v)", final, prev))
	}
	return out
}

// checkGrantConsistency verifies a gated run's arbitration bookkeeping:
// exactly one grant per stage in stage order, each within [1, want] with
// want matching the pre-gate plan, scripted caps honored exactly, and
// the executed final plan equal to the granted allocations. Runs that
// recorded no grants are checked only for not owing any (a cap-carrying
// scenario must gate every stage).
func checkGrantConsistency(a *Artifacts) []string {
	var out []string
	n := a.Scenario.Spec.NumStages()
	caps := a.Scenario.ArbiterCaps
	if len(a.Grants) == 0 {
		if len(caps) > 0 {
			out = append(out, fmt.Sprintf("cap-carrying scenario recorded no grants (%d stages)", n))
		}
		return out
	}
	if len(a.Grants) != n {
		out = append(out, fmt.Sprintf("%d grants recorded for %d stages", len(a.Grants), n))
		return out
	}
	final := a.Result.FinalPlan
	for i, g := range a.Grants {
		if g.Stage != i {
			out = append(out, fmt.Sprintf("grant %d is for stage %d, want stage order", i, g.Stage))
			continue
		}
		if g.Want != a.Plan.Alloc[i] {
			out = append(out, fmt.Sprintf("stage %d requested %d GPUs, plan allocates %d", i, g.Want, a.Plan.Alloc[i]))
		}
		if g.Granted < 1 || g.Granted > g.Want {
			out = append(out, fmt.Sprintf("stage %d granted %d GPUs outside [1, %d]", i, g.Granted, g.Want))
		}
		if len(caps) == n {
			want := g.Want
			if caps[i] < want {
				want = caps[i]
			}
			if want < 1 {
				want = 1
			}
			if g.Granted != want {
				out = append(out, fmt.Sprintf("stage %d granted %d GPUs, cap %d and request %d imply %d", i, g.Granted, caps[i], g.Want, want))
			}
		}
		if i < len(final.Alloc) && final.Alloc[i] != g.Granted {
			out = append(out, fmt.Sprintf("stage %d executed %d GPUs, grant was %d", i, final.Alloc[i], g.Granted))
		}
	}
	return out
}

// checkScheduleSanity verifies the realized schedule's structure: one row
// per stage in order, consistent iteration windows, non-overlapping stage
// time spans ending exactly at job completion, and trace barriers that
// agree with the schedule.
func checkScheduleSanity(a *Artifacts) []string {
	var out []string
	sp := a.Scenario.Spec
	rows := a.Result.Schedule
	if len(rows) != sp.NumStages() {
		return []string{fmt.Sprintf("%d schedule rows, spec has %d stages", len(rows), sp.NumStages())}
	}
	cum := 0
	for i, row := range rows {
		st := sp.Stage(i)
		if row.Stage != i {
			out = append(out, fmt.Sprintf("row %d labeled stage %d", i, row.Stage))
		}
		if row.Trials != st.Trials {
			out = append(out, fmt.Sprintf("stage %d row has %d trials, spec wants %d", i, row.Trials, st.Trials))
		}
		if row.IterStart != cum || row.IterEnd != cum+st.Iters {
			out = append(out, fmt.Sprintf("stage %d iteration window [%d,%d], spec wants [%d,%d]", i, row.IterStart, row.IterEnd, cum, cum+st.Iters))
		}
		cum += st.Iters
		if row.End < row.Start {
			out = append(out, fmt.Sprintf("stage %d ends (%v) before it starts (%v)", i, row.End, row.Start))
		}
		if i > 0 && row.Start < rows[i-1].End {
			out = append(out, fmt.Sprintf("stage %d starts (%v) before stage %d ends (%v)", i, row.Start, i-1, rows[i-1].End))
		}
		if row.Cost < -1e-9 {
			out = append(out, fmt.Sprintf("stage %d has negative cost %v", i, row.Cost))
		}
	}
	if last := rows[len(rows)-1].End; !closeTo(float64(last), a.Result.JCT) {
		out = append(out, fmt.Sprintf("last barrier at %v, JCT %v", last, a.Result.JCT))
	}
	if ns, ne := a.Recorder.Count(trace.KindStageStart), a.Recorder.Count(trace.KindStageEnd); ns != sp.NumStages() || ne != sp.NumStages() {
		out = append(out, fmt.Sprintf("trace has %d stage starts / %d stage ends, spec has %d stages", ns, ne, sp.NumStages()))
	}
	return out
}
