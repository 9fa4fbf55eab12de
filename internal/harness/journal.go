package harness

import (
	"errors"
	"fmt"

	"repro/internal/cloud"
	"repro/internal/executor"
	"repro/internal/journal"
	"repro/internal/replan"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// allocI64 widens a plan allocation for its fixed-width journal encoding.
func allocI64(alloc []int) []int64 {
	if len(alloc) == 0 {
		return nil
	}
	out := make([]int64, len(alloc))
	for i, g := range alloc {
		out[i] = int64(g)
	}
	return out
}

// decisionRecord converts a replan decision into its journal record,
// which carries the full payload a trace event's note only renders.
func decisionRecord(d replan.Decision) *journal.Decision {
	return &journal.Decision{
		Seq:               int64(d.Seq),
		At:                float64(d.At),
		Reason:            uint8(d.Reason),
		Stage:             int64(d.Stage),
		Ratio:             d.Ratio,
		RemainingDeadline: d.RemainingDeadline,
		OldAlloc:          allocI64(d.OldPlan.Alloc),
		NewAlloc:          allocI64(d.NewPlan.Alloc),
		StaleJCT:          d.StaleEstimate.JCT,
		StaleCost:         d.StaleEstimate.Cost,
		NewJCT:            d.NewEstimate.JCT,
		NewCost:           d.NewEstimate.Cost,
		Adopted:           d.Adopted,
		Infeasible:        d.Infeasible,
	}
}

// captureSnapshot reads the full control-plane state for a journal
// snapshot: clock cursor, live plan and trial states, accrued billing,
// replan EWMAs, and RNG stream cursors. It is a pure read — no RNG
// draws, no mutation — so snapshotting never perturbs the run. job is
// nil for snapshots taken during executor.Start's first records, in
// every run alike, so recovery still verifies byte-identically.
func captureSnapshot(clock *vclock.Clock, job *executor.Job, provider *cloud.Provider,
	rec *trace.Recorder, ctl *replan.Controller, execRNG, provRNG *stats.RNG) *journal.Snapshot {
	now := clock.Now()
	s := &journal.Snapshot{
		VNow:           float64(now),
		ClockSeq:       clock.Seq(),
		Stage:          -1,
		TotalCost:      provider.TotalCost(now),
		DataCost:       provider.DataCost(),
		Instances:      int64(provider.NumInstances()),
		BusyGPUSeconds: rec.BusyGPUSeconds(),
		ExecRNG:        execRNG.State(),
		ProviderRNG:    provRNG.State(),
	}
	if job != nil {
		s.Stage = int64(job.Stage())
		s.Alloc = allocI64(job.CurrentPlan().Alloc)
		s.ExecFold = job.StateFold()
		for _, t := range job.Trials() {
			acc, ok := t.LatestAccuracy()
			s.Trials = append(s.Trials, journal.TrialSnap{
				ID:       int64(t.ID()),
				State:    int64(t.State()),
				CumIters: int64(t.CumIters()),
				HasAcc:   ok,
				Acc:      acc,
			})
		}
	}
	if ctl != nil {
		ds := ctl.DetectorState()
		s.HasReplan = true
		s.TotalObs = int64(ds.TotalObs)
		for _, a := range ds.Allocs {
			s.Allocs = append(s.Allocs, journal.AllocEWMA{
				GPUs: int64(a.GPUs), EWMA: a.EWMA, Count: int64(a.Count),
			})
		}
		s.OverheadEWMA = ds.OverheadEWMA
		s.OverheadCount = int64(ds.OverheadCount)
		s.Armed = ds.Armed
		s.LastReplan = float64(ds.LastReplan)
		s.Decisions = int64(ds.Decisions)
	}
	return s
}

// CrashPoint describes one injected control-plane kill: the run dies
// when it is about to journal record Seq (0-based), leaving the journal
// with exactly Seq records plus Torn bytes of the fatal record's frame —
// a mid-write crash when Torn > 0, a clean kill at a record boundary
// otherwise.
type CrashPoint struct {
	Seq  uint64
	Torn int
}

// RecoveryOutcome reports one crash/recover experiment.
type RecoveryOutcome struct {
	// Baseline is the uninterrupted journaled run's digest; Recovered is
	// the digest of the run killed at Crash and resumed from its journal.
	Baseline  Digest
	Recovered Digest
	// Records is the total journal length of the completed run.
	Records uint64
	// Crash is the injected kill.
	Crash CrashPoint
	// Damage is what Resume reported on the crashed journal (non-empty
	// exactly when the kill tore a frame).
	Damage string
}

// CrashRecover exercises the crash/restart fault model for one scenario:
//
//  1. an uninterrupted journaled reference run on its own backend,
//  2. a run killed at a crash point chosen by pick (given the reference
//     journal's total record count),
//  3. verified recovery resumed from the crashed journal.
//
// mk builds a fresh backend per role ("baseline", "crashed"); tests pass
// in-memory or file-backed constructors. The returned problem strings
// are the recovery-equivalence oracle's findings: empty means the
// recovered run's digest is bit-identical to the uninterrupted one's and
// both journals hold byte-identical records and snapshots.
func CrashRecover(sc Scenario, interval uint64, pick func(totalRecords uint64) CrashPoint,
	mk func(role string) (journal.Backend, error)) (RecoveryOutcome, []string, error) {
	var out RecoveryOutcome

	// Uninterrupted reference.
	base, err := mk("baseline")
	if err != nil {
		return out, nil, err
	}
	defer base.Close()
	wb := journal.NewWriter(base, interval)
	ab, err := Run(sc, RunConfig{Journal: wb})
	if err != nil {
		return out, nil, fmt.Errorf("baseline journaled run: %w", err)
	}
	out.Baseline = ComputeDigest(ab)
	out.Records = wb.Seq()
	out.Crash = pick(out.Records)

	// Killed run. The crash surfaces as journal.ErrCrash; everything in
	// memory is dropped and only the backend survives.
	crashed, err := mk("crashed")
	if err != nil {
		return out, nil, err
	}
	defer crashed.Close()
	wc := journal.NewWriter(crashed, interval)
	wc.SetCrashPoint(out.Crash.Seq, out.Crash.Torn)
	if _, err := Run(sc, RunConfig{Journal: wc}); !errors.Is(err, journal.ErrCrash) {
		return out, nil, fmt.Errorf("crash at record %d did not kill the run (err=%v)", out.Crash.Seq, err)
	}

	// Verified recovery: resume from the journal tail and re-drive the
	// run; the writer byte-checks the prefix and appends the rest.
	w2, hdr, damage, err := journal.Resume(crashed, interval)
	if err != nil {
		return out, nil, fmt.Errorf("resume after crash at %d: %w", out.Crash.Seq, err)
	}
	out.Damage = damage
	var problems []string
	if hdr != nil && (hdr.BatchSeed != sc.BatchSeed || hdr.Index != int64(sc.Index)) {
		problems = append(problems, fmt.Sprintf(
			"journal header identifies run (seed=%d index=%d), want (seed=%d index=%d)",
			hdr.BatchSeed, hdr.Index, sc.BatchSeed, sc.Index))
		return out, problems, nil
	}
	ar, err := Run(sc, RunConfig{Journal: w2})
	if err != nil {
		return out, nil, fmt.Errorf("recovery from crash at record %d (torn %d, damage %q): %w",
			out.Crash.Seq, out.Crash.Torn, damage, err)
	}
	out.Recovered = ComputeDigest(ar)

	if out.Recovered != out.Baseline {
		problems = append(problems, fmt.Sprintf(
			"recovered digest %016x != uninterrupted digest %016x (crash at record %d/%d, torn %d)",
			uint64(out.Recovered), uint64(out.Baseline), out.Crash.Seq, out.Records, out.Crash.Torn))
	}
	if w2.Seq() != out.Records {
		problems = append(problems, fmt.Sprintf(
			"recovered journal has %d records, uninterrupted has %d", w2.Seq(), out.Records))
	}
	diff, err := journal.Diff(base, crashed)
	if err != nil {
		return out, nil, err
	}
	if diff != "" {
		problems = append(problems, fmt.Sprintf(
			"recovered journal differs from uninterrupted journal: %s (crash at record %d, torn %d)",
			diff, out.Crash.Seq, out.Crash.Torn))
	}
	return out, problems, nil
}

// Snapshot intervals the seeded crash fault model draws from: dense,
// sparse, and disabled, so recovery is exercised both near and far from
// snapshot points.
var crashIntervals = []uint64{1, 7, 32, 0}

// checkRecovery is the recovery-equivalence oracle: it derives a seeded
// crash point for the scenario (a virtual instant, expressed as the
// journal sequence reached at that point in the run), kills and recovers
// the control plane there on an in-memory backend, and requires the
// recovered run to be bit-identical to the uninterrupted one — digest
// and journal both. want is the scenario's plain (unjournaled) digest;
// the oracle also requires journaling itself to be digest-invisible.
func checkRecovery(sc Scenario, want Digest) []Violation {
	r := scenarioRoot(sc.BatchSeed, sc.Index).Stream(streamCrash)
	interval := crashIntervals[r.Intn(len(crashIntervals))]
	frac := r.Float64()
	torn := 0
	if r.Intn(2) == 1 {
		torn = 1 + r.Intn(40)
	}
	pick := func(total uint64) CrashPoint {
		// total ≥ 2 (header + End); crash anywhere in [1, total-1] so the
		// kill always loses real state but the header survives. Seq 0
		// (nothing durable) is covered by the sweep tests.
		seq := 1 + uint64(frac*float64(total-1))
		if seq >= total {
			seq = total - 1
		}
		return CrashPoint{Seq: seq, Torn: torn}
	}
	outcome, problems, err := CrashRecover(sc, interval, pick, func(string) (journal.Backend, error) {
		return journal.NewMemBackend(), nil
	})
	const oracle = "recovery-equivalence"
	if err != nil {
		return []Violation{{Oracle: oracle, Detail: err.Error()}}
	}
	var out []Violation
	if outcome.Baseline != want {
		out = append(out, Violation{Oracle: oracle, Detail: fmt.Sprintf(
			"journaling perturbed the run: journaled digest %016x != plain digest %016x",
			uint64(outcome.Baseline), uint64(want))})
	}
	for _, p := range problems {
		out = append(out, Violation{Oracle: oracle, Detail: p})
	}
	return out
}
