package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/planner"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
)

// snapshotInterval is serve.Config's default journal snapshot interval.
const snapshotInterval = 64

// layers is one experiment's offline breakdown: each call the served or
// batch run makes, re-run and timed from the benchmark's side.
type layers struct {
	build, simNew, plan, estimate, start, exec, finish, digest time.Duration
	steps                                                      int
	planned                                                    bool
	// Journaled re-runs (serve-fleet): the run with an in-memory journal
	// and with a counting file journal, and what the file journal saw.
	memRun, fileRun    time.Duration
	records            uint64
	appends, snapshots int
	journalBytes       int64
	// Replan (batch-replan): the same run with the controller off, and
	// the decisions the controller took.
	replanOff         time.Duration
	decisions, adopts int
}

// run is what a plain re-run costs: start, step loop and finish.
func (l *layers) run() time.Duration { return l.start + l.exec + l.finish }

// countingBackend counts what a journal writes through to its backend.
type countingBackend struct {
	journal.Backend
	appends, snapshots int
	bytes              int64
}

func (c *countingBackend) Append(p []byte) error {
	c.appends++
	c.bytes += int64(len(p))
	return c.Backend.Append(p)
}

func (c *countingBackend) PutSnapshot(seq uint64, p []byte) error {
	c.snapshots++
	c.bytes += int64(len(p))
	return c.Backend.PutSnapshot(seq, p)
}

// breakdownOne re-runs one experiment call by call under spans parented
// to one breakdown span. tup is the served experiment's replay tuple
// (its grants are scripted back in, and its digest must reproduce); nil
// for batch-replan items. journalDir, when set, adds the journaled
// re-runs.
func breakdownOne(tr *tracer, exp string, it item, tup *serve.ReplayTuple, journalDir string) (layers, error) {
	var l layers
	root := tr.id()
	t0 := tr.now()
	defer func() { tr.add(span{ID: root, Name: "breakdown", Exp: exp, Start: t0, End: tr.now()}) }()
	step := func(name string, fn func()) time.Duration { return tr.timed(name, exp, root, fn) }

	var sc harness.Scenario
	var err error
	l.build = step("harness.build", func() { sc, err = scenario(it) })
	if err != nil {
		return l, err
	}
	gate := func() harness.GrantFn {
		if tup == nil {
			return nil
		}
		return serve.ScriptedGrants(tup.Grants)
	}

	// A cold simulator and planner, built as StartScenario builds them
	// and seeded from the same stream (stream 1 of the scenario's root),
	// so the planner searches the same candidates StartScenario does.
	profile := sim.ModelTrainProfile{Model: sc.Model, Batch: sc.Model.BaseBatch, GPUsPerNode: sc.Profile.Instance.GPUs}
	rng := stats.NewRNG(sc.BatchSeed).Stream(uint64(sc.Index)).Stream(1)
	var sm *sim.Simulator
	l.simNew = step("sim.new", func() {
		sm, err = sim.New(sc.Spec, profile, sc.Profile, sc.Samples, rng, sim.WithWorkers(1), sim.WithEstimator(sc.Estimator))
	})
	if err != nil {
		return l, err
	}
	p := &planner.Planner{Sim: sm, Deadline: sm.StaticClusterJCT(sc.MaxGPUs) * sc.DeadlineFactor, MaxGPUs: sc.MaxGPUs, Workers: 1}
	var res planner.Result
	var perr error
	l.plan = step("planner.plan_elastic", func() { res, perr = p.PlanElastic() })
	if perr == nil {
		l.estimate = step("sim.estimate", func() { _, err = sm.Estimate(res.Plan) })
		if err != nil {
			return l, err
		}
	}

	// StartScenario plans again, the same plan: planning and the rest of
	// the call cost too little apart to tell by subtracting two runs, so
	// harness.start_us is the whole call.
	var r *harness.Running
	l.start = step("harness.start", func() { r, err = harness.StartScenario(sc, harness.RunConfig{Gate: gate()}) })
	if err != nil {
		return l, err
	}
	l.planned = r.Planned()
	l.exec = step("executor.step_loop", func() {
		for !r.Done() && err == nil {
			err = r.Step()
		}
	})
	if err != nil {
		return l, err
	}
	l.steps = r.Steps()
	var a *harness.Artifacts
	l.finish = step("harness.finish", func() { a, err = r.Finish() })
	if err != nil {
		return l, err
	}
	var d harness.Digest
	l.digest = step("harness.digest", func() { d = harness.ComputeDigest(a) })
	if tup != nil && serve.DigestString(d) != tup.Digest {
		return l, fmt.Errorf("breakdown digest %s, served %s", serve.DigestString(d), tup.Digest)
	}
	l.decisions = len(a.Result.Replans)
	for _, dec := range a.Result.Replans {
		if dec.Adopted {
			l.adopts++
		}
	}

	if journalDir != "" {
		l.memRun = step("journal.mem_run", func() {
			err = runJournaled(sc, gate(), journal.NewWriter(journal.NewMemBackend(), snapshotInterval))
		})
		if err != nil {
			return l, err
		}
		fb, err := journal.NewFileBackend(journalDir)
		if err != nil {
			return l, err
		}
		cb := &countingBackend{Backend: fb}
		jw := journal.NewWriter(cb, snapshotInterval)
		l.fileRun = step("journal.file_run", func() { err = runJournaled(sc, gate(), jw) })
		if cerr := fb.Close(); err == nil {
			err = cerr
		}
		if rerr := os.RemoveAll(journalDir); err == nil {
			err = rerr
		}
		if err != nil {
			return l, err
		}
		l.records, l.appends, l.snapshots, l.journalBytes = jw.Seq(), cb.appends, cb.snapshots, cb.bytes
	}
	if sc.ReplanEnabled {
		off := sc
		off.ReplanEnabled = false
		l.replanOff = step("replan.off_run", func() { err = runJournaled(off, nil, nil) })
	}
	return l, err
}

// runJournaled drives a scenario to completion through jw (nil: no
// journal).
func runJournaled(sc harness.Scenario, gate harness.GrantFn, jw *journal.Writer) error {
	r, err := harness.StartScenario(sc, harness.RunConfig{Journal: jw, Gate: gate})
	if err != nil {
		return err
	}
	for !r.Done() {
		if err := r.Step(); err != nil {
			return err
		}
	}
	_, err = r.Finish()
	return err
}
