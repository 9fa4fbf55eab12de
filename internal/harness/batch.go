package harness

import (
	"fmt"

	"repro/internal/par"
)

// Options configures a batch run of generated scenarios.
type Options struct {
	// Seed is the batch seed; scenario i is Generate(Seed, i).
	Seed uint64
	// Scenarios is the number of scenarios to run.
	Scenarios int
	// Workers is the fan-out width (<=1 means serial). Scenario results
	// are reduced in index order, so the report and batch digest are
	// identical at any worker count.
	Workers int
	// Replay, when set, runs every scenario a second time and reports a
	// digest mismatch as a determinism violation.
	Replay bool
	// CrashCheck, when set, runs the recovery-equivalence oracle on every
	// scenario: a journaled run is killed at a seeded crash point, resumed
	// from the surviving journal, and required to finish bit-identical to
	// the uninterrupted run (digest and journal both).
	CrashCheck bool
	// Mutate, when non-nil, adjusts each generated scenario before it
	// runs (CLI overrides such as forcing the replan controller on or
	// off). It is applied to the replay too, so determinism checks hold
	// for the mutated scenario, and it must itself be deterministic.
	Mutate func(*Scenario)
}

// ScenarioReport is the outcome of one scenario within a batch.
type ScenarioReport struct {
	Scenario   Scenario
	Digest     Digest
	Violations []Violation
	// Err records a pipeline-level failure (the run aborted before
	// producing artifacts). Err and Violations are mutually exclusive.
	Err error
	// Steps is the number of virtual-clock events the run executed.
	Steps int
}

// Failed reports whether the scenario produced any violation or error.
func (r *ScenarioReport) Failed() bool { return r.Err != nil || len(r.Violations) > 0 }

// Report is the outcome of a whole batch.
type Report struct {
	Seed      uint64
	Scenarios []ScenarioReport
	// BatchDigest folds all scenario digests in index order.
	BatchDigest Digest
}

// RunBatch generates and executes opts.Scenarios scenarios from opts.Seed,
// checking every oracle on each. Scenarios run independently across
// opts.Workers goroutines; results are collected index-addressed, so the
// returned report is bit-identical at any worker count.
func RunBatch(opts Options) *Report {
	if opts.Scenarios < 0 {
		opts.Scenarios = 0
	}
	reports := make([]ScenarioReport, opts.Scenarios)
	par.ForEach(opts.Scenarios, opts.Workers, func(i int) {
		reports[i] = runOne(opts, i)
	})
	rep := &Report{Seed: opts.Seed, Scenarios: reports}
	digests := make([]Digest, len(reports))
	for i := range reports {
		digests[i] = reports[i].Digest
	}
	rep.BatchDigest = CombineDigests(digests)
	return rep
}

// RunIndex generates and executes the single scenario i of the batch
// seeded by opts.Seed, for drilling into one failure without re-running
// the whole batch. The report is identical to entry i of RunBatch's.
func RunIndex(opts Options, i int) ScenarioReport {
	return runOne(opts, i)
}

// runOne executes scenario i of the batch, applies DefaultOracles, and
// — when requested — replays it to check bit-identical determinism.
func runOne(opts Options, i int) ScenarioReport {
	sc := Generate(opts.Seed, i)
	if opts.Mutate != nil {
		opts.Mutate(&sc)
	}
	out := ScenarioReport{Scenario: sc}
	a, err := RunScenario(sc)
	if err != nil {
		out.Err = err
		return out
	}
	out.Steps = a.Steps
	out.Digest = ComputeDigest(a)
	out.Violations = CheckAll(a, DefaultOracles())
	if opts.Replay {
		b, err := RunScenario(sc)
		if err != nil {
			out.Violations = append(out.Violations, Violation{
				Oracle: "replay",
				Detail: fmt.Sprintf("replay aborted: %v (first run succeeded)", err),
			})
		} else if d := ComputeDigest(b); d != out.Digest {
			out.Violations = append(out.Violations, Violation{
				Oracle: "replay",
				Detail: fmt.Sprintf("digest mismatch: first run %016x, replay %016x", uint64(out.Digest), uint64(d)),
			})
		}
	}
	if opts.CrashCheck {
		out.Violations = append(out.Violations, checkRecovery(sc, out.Digest)...)
	}
	return out
}
