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

// snapshotState folds the full control-plane state into a journal
// snapshot's State: the clock cursor, accrued billing and metering, the
// cursors of the two RNG streams the run mutates, the live plan, trial
// states and scheduler fold (executor.Job.StateFold), and the replan
// detector state. Every list folds its length first, so no two states
// fold the same bytes. It is a pure read — no RNG draws, no mutation —
// so snapshotting never perturbs the run. job is nil for snapshots
// taken during executor.Start's first events, in every run alike, so
// recovery still verifies byte-identically.
func snapshotState(clock *vclock.Clock, job *executor.Job, provider *cloud.Provider,
	rec *trace.Recorder, ctl *replan.Controller, execRNG, provRNG *stats.RNG) uint64 {
	h := newHasher()
	now := clock.Now()
	h.f64(float64(now))
	h.u64(clock.Seq())
	h.f64(provider.TotalCost(now))
	h.f64(provider.DataCost())
	h.i64(int64(provider.NumInstances()))
	h.f64(rec.BusyGPUSeconds())
	for _, w := range execRNG.State() {
		h.u64(w)
	}
	for _, w := range provRNG.State() {
		h.u64(w)
	}
	if job == nil {
		h.i64(-1)
	} else {
		h.i64(int64(job.Stage()))
		alloc := job.CurrentPlan().Alloc
		h.u64(uint64(len(alloc)))
		for _, g := range alloc {
			h.i64(int64(g))
		}
		h.u64(job.StateFold())
		trials := job.Trials()
		h.u64(uint64(len(trials)))
		for _, t := range trials {
			acc, ok := t.LatestAccuracy()
			h.i64(int64(t.ID()))
			h.i64(int64(t.State()))
			h.i64(int64(t.CumIters()))
			h.i64(b2i(ok))
			h.f64(acc)
		}
	}
	h.i64(b2i(ctl != nil))
	if ctl != nil {
		ds := ctl.DetectorState()
		h.i64(int64(ds.TotalObs))
		h.u64(uint64(len(ds.Allocs)))
		for _, a := range ds.Allocs {
			h.i64(int64(a.GPUs))
			h.f64(a.EWMA)
			h.i64(int64(a.Count))
		}
		h.f64(ds.OverheadEWMA)
		h.i64(int64(ds.OverheadCount))
		h.i64(b2i(ds.Armed))
		h.f64(float64(ds.LastReplan))
		h.i64(int64(ds.Decisions))
	}
	return uint64(h)
}

// CrashPoint describes one injected control-plane kill: the run dies
// when it is about to make durable journal write Seq (0-based; records
// and snapshots count alike), leaving the journal with exactly the Seq
// writes before it plus Torn bytes of the fatal write's frame — a
// mid-write crash when Torn > 0, a clean kill at a write boundary
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
	// Writes is the number of durable writes, records and snapshots,
	// the completed run made.
	Writes uint64
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
//     journal's total write count),
//  3. verified recovery resumed from the crashed journal.
//
// mk builds a fresh backend per role ("baseline", "crashed"); tests pass
// in-memory or file-backed constructors. The returned problem strings
// are the recovery-equivalence oracle's findings: empty means the
// recovered run's digest is bit-identical to the uninterrupted one's and
// both journals hold byte-identical records and snapshots.
func CrashRecover(sc Scenario, interval uint64, pick func(totalWrites uint64) CrashPoint,
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
	out.Writes = wb.Seq()
	out.Crash = pick(out.Writes)

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
		return out, nil, fmt.Errorf("crash at write %d did not kill the run (err=%v)", out.Crash.Seq, err)
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
		return out, nil, fmt.Errorf("recovery from crash at write %d (torn %d, damage %q): %w",
			out.Crash.Seq, out.Crash.Torn, damage, err)
	}
	out.Recovered = ComputeDigest(ar)

	if out.Recovered != out.Baseline {
		problems = append(problems, fmt.Sprintf(
			"recovered digest %016x != uninterrupted digest %016x (crash at write %d/%d, torn %d)",
			uint64(out.Recovered), uint64(out.Baseline), out.Crash.Seq, out.Writes, out.Crash.Torn))
	}
	if w2.Seq() != out.Writes {
		problems = append(problems, fmt.Sprintf(
			"recovered journal made %d writes, uninterrupted made %d", w2.Seq(), out.Writes))
	}
	diff, err := journal.Diff(base, crashed)
	if err != nil {
		return out, nil, err
	}
	if diff != "" {
		problems = append(problems, fmt.Sprintf(
			"recovered journal differs from uninterrupted journal: %s (crash at write %d, torn %d)",
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
// journal write reached at that point in the run), kills and recovers
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
		// kill always loses a write but the header survives. Seq 0
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
