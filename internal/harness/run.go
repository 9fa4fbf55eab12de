package harness

import (
	"errors"
	"fmt"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/executor"
	"repro/internal/journal"
	"repro/internal/planner"
	"repro/internal/profiler"
	"repro/internal/replan"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// maxSteps bounds the number of virtual-clock events one scenario may
// execute. The largest generated scenarios finish in well under 100k
// events; hitting the bound means the pipeline livelocked (for example, a
// recovery loop that no longer makes progress), which is itself a
// reportable bug rather than a reason to hang the harness.
const maxSteps = 2_000_000

// errLivelock is returned when a scenario exhausts maxSteps.
var errLivelock = errors.New("harness: event budget exhausted before job completion (livelock?)")

// GrantRequest is one stage-boundary resource request presented to an
// arbiter gate: the executor is about to start Stage and the live plan
// calls for Want GPUs. Now is the virtual clock, Deadline the job
// deadline, and PredictedRemaining the planner-predicted virtual seconds
// of work left from this stage onward — Deadline − Now −
// PredictedRemaining is the request's deadline slack, the quantity
// HyperSched-style arbitration ranks by.
type GrantRequest struct {
	Stage              int
	Want               int
	Now                float64
	Deadline           float64
	PredictedRemaining float64
}

// GrantFn arbitrates one GrantRequest, returning the granted GPU count.
// Grants are clamped to [1, Want]: one GPU still makes progress through
// queued trial waves, so a gate can squeeze but never stall a stage.
// The gate is called synchronously inside the executor's stage
// transition, so it must not block on the run's own progress.
type GrantFn func(GrantRequest) int

// GrantDecision is one recorded arbitration outcome.
type GrantDecision struct {
	Stage   int
	Want    int
	Granted int
	At      float64
}

// RunConfig bundles the optional knobs of a scenario run.
type RunConfig struct {
	// Journal, if non-nil, streams every executor state transition and
	// replan decision through the writer (write-ahead), captures
	// snapshots at its interval, and closes the run with an End record.
	// A crash or divergence latched by the writer aborts the run at the
	// next step boundary.
	Journal *journal.Writer
	// Gate, if non-nil, arbitrates every stage-boundary allocation. The
	// decisions are recorded in Artifacts.Grants, journaled as Grant
	// records, and folded into the digest, so a gated run is a pure
	// function of (scenario, grant sequence). Gated scenarios must not
	// enable the replan controller: both rewrite the live plan.
	Gate GrantFn
}

// Artifacts bundles everything a run produced that oracles inspect: the
// plan and its prediction, the realized result, the full event trace, and
// the provider-side billing state.
type Artifacts struct {
	Scenario Scenario
	// Plan is the executed allocation plan. Planned reports whether it
	// came from the planner (true), or is the scenario's own Plan or the
	// 1-GPU-per-trial fallback used when the deadline was infeasible.
	Plan    sim.Plan
	Planned bool
	// Estimate is the planner's prediction (valid only when Planned).
	Estimate sim.Estimate
	// Deadline is the job deadline in seconds.
	Deadline float64
	// Result is the realized execution outcome.
	Result *executor.Result
	// Recorder holds the full event trace and busy-GPU accounting.
	Recorder *trace.Recorder
	// Instances is the provider's complete instance ledger.
	Instances []*cloud.Instance
	// DataCost is the provider's accumulated ingress charge.
	DataCost float64
	// Retries counts provisioning requests reissued after failures.
	Retries int
	// GPN is the worker instance's GPU count.
	GPN int
	// Steps is the number of virtual-clock events executed.
	Steps int
	// ProfilingDuration is the simulated time the instrumentation step
	// took (zero unless Scenario.UseProfiler).
	ProfilingDuration float64
	// Grants is the stage-boundary arbitration record of a gated run
	// (empty for ungated runs). Replaying the same scenario under a gate
	// that re-issues this sequence reproduces the digest bit for bit.
	Grants []GrantDecision
}

// finishedAt returns the virtual completion instant of the run.
func (a *Artifacts) finishedAt() vclock.Time { return vclock.Time(a.Result.JCT) }

// RunScenario executes one scenario end-to-end: it builds the simulator,
// plans under the scenario's policy and deadline (executing the
// scenario's own plan if it has one, and a minimal elastic plan if the
// deadline is infeasible), wires a faulty provider and cluster manager
// on a fresh virtual clock, and drives the executor to completion. Every
// random stream is derived from (BatchSeed, Index), so repeated calls
// produce bit-identical artifacts.
func RunScenario(sc Scenario) (*Artifacts, error) { return Run(sc, RunConfig{}) }

// Run starts sc under rc and drives it to completion. With rc.Journal
// set it journals the run write-ahead; a writer from journal.Resume
// makes it verified recovery (the re-executed prefix is byte-compared
// against the journal, then the run continues by appending). Journaling
// is digest-invisible. With rc.Gate set it is the offline replay path
// for arbitrated runs: a gate re-issuing a recorded grant sequence
// reproduces the server-side digest bit for bit.
func Run(sc Scenario, rc RunConfig) (*Artifacts, error) {
	return runOn(getWorkingSet(), sc, rc, putWorkingSet)
}

// runOn is Run on the working set ws, which it hands to put once the
// run is done. A failed run drops ws rather than hand it on.
func runOn(ws *workingSet, sc Scenario, rc RunConfig, put func(*workingSet)) (*Artifacts, error) {
	r := &ws.running
	if err := startOn(ws, sc, rc, r); err != nil {
		return nil, err
	}
	for !r.Done() {
		if err := r.Step(); err != nil {
			return nil, err
		}
	}
	a, err := r.Finish()
	if err != nil {
		return nil, err
	}
	// The artifacts keep a frozen copy of the trace, the trials with
	// their configurations and the instance records; everything else the
	// run drew from its working set, the recorder included, goes back.
	a.Recorder = a.Recorder.Freeze()
	ws.detachArtifacts()
	r.release(put)
	return a, nil
}

// Running is an in-flight scenario run driven by its caller: the serve
// control plane steps many Runnings against one arbiter, and tests step
// them in lockstep. Step/Done/Finish must be called from one goroutine;
// the read accessors may race only with that goroutine's steps, so
// concurrent callers (an HTTP status endpoint) must synchronize
// externally.
type Running struct {
	a  *Artifacts
	jw *journal.Writer
	// ws is the working set the run's state comes from; Release returns
	// it to the pool and clears it and the pointers into it below.
	ws       *workingSet
	clock    *vclock.Clock
	job      *executor.Job
	provider *cloud.Provider
	mgr      *cluster.Manager
	rec      *trace.Recorder
	finished bool
}

// StartScenario builds the full pipeline for sc — simulator, plan,
// substrate, executor — and returns it un-driven: the first Step
// executes the first virtual-clock event. See RunConfig for the knobs.
func StartScenario(sc Scenario, rc RunConfig) (*Running, error) {
	r := new(Running)
	if err := startOn(getWorkingSet(), sc, rc, r); err != nil {
		return nil, err
	}
	return r, nil
}

// startOn is StartScenario on the working set ws, filling in dst. A
// failed start drops ws rather than return it.
func startOn(ws *workingSet, sc Scenario, rc RunConfig, dst *Running) error {
	jw, gate := rc.Journal, rc.Gate
	if gate == nil && len(sc.ArbiterCaps) > 0 {
		gate = capGate(sc.ArbiterCaps)
	}
	if gate != nil && sc.ReplanEnabled {
		return fmt.Errorf("harness: arbitrated runs require ReplanEnabled=false (both rewrite the live plan)")
	}
	a := &Artifacts{GPN: sc.Profile.Instance.GPUs}
	profile, err := prepareOn(ws, &sc, a)
	if err != nil {
		return err
	}
	a.Scenario = sc
	deadline := a.Deadline
	if len(sc.Plan.Alloc) > 0 {
		a.Plan = sc.Plan.Clone()
	} else if pres, perr := ws.planner.Plan(sc.Policy); perr == nil {
		a.Plan, a.Estimate, a.Planned = pres.Plan, pres.Estimate, true
	} else {
		// Infeasible deadline (or an equally deliberate planner refusal):
		// execute the minimal elastic plan so the executor path is still
		// exercised. The deadline oracle skips unplanned runs.
		alloc := make([]int, sc.Spec.NumStages())
		for i := range alloc {
			alloc[i] = sc.Spec.Stage(i).Trials
		}
		a.Plan = sim.Plan{Alloc: alloc}
	}
	root := &ws.root

	// Drift injection: a step function of virtual time only, so enabling
	// it never perturbs any RNG stream.
	var latencyScale func(vclock.Time) float64
	if sc.Drift.Active() {
		onset := vclock.Time(deadline * sc.Drift.StartFraction)
		factor := sc.Drift.Factor
		latencyScale = func(now vclock.Time) float64 {
			if now >= onset {
				return factor
			}
			return 1
		}
	}

	// Journal the run header before any state transition: the journal's
	// first record pins the run's identity and the executed plan, so
	// recovery can refuse a foreign journal before re-executing anything.
	if jw != nil {
		if err := jw.Record(&journal.Header{
			BatchSeed: sc.BatchSeed,
			Index:     int64(sc.Index),
			Interval:  jw.Interval(),
			Deadline:  deadline,
			Planned:   a.Planned,
			Alloc:     allocI64(a.Plan.Alloc),
		}); err != nil {
			return err
		}
	}

	// The replan controller only runs for planner-produced plans: the
	// fallback plan is already the planner's declaration of infeasibility
	// and there is no deadline budget to re-divide.
	var ctl *replan.Controller
	if sc.ReplanEnabled && a.Planned {
		ctl = &ws.ctl
		if err := ctl.Init(replan.Config{
			Spec:            sc.Spec,
			Profile:         profile,
			Cloud:           sc.Profile,
			Deadline:        deadline,
			MaxGPUs:         sc.MaxGPUs,
			Threshold:       sc.DriftThreshold,
			CooldownSeconds: sc.ReplanCooldown,
		}); err != nil {
			return fmt.Errorf("harness: replan controller: %w", err)
		}
	}

	// Execute on the working set: a fresh substrate, or one a finished
	// run was reset to. The executor and provider RNG streams are held by
	// name so control-plane snapshots can capture their cursors (Stream
	// is pure: these are the same streams the run uses).
	clock, provider, mgr, rec := &ws.clock, &ws.provider, &ws.mgr, &ws.rec
	execRNG, provRNG := &ws.execRNG, &ws.provRNG
	root.StreamInto(streamExecutor, execRNG)
	root.StreamInto(streamProvider, provRNG)
	if err := provider.Init(clock, provRNG,
		sc.Profile.Pricing, sc.Profile.Overheads, sc.Profile.DatasetGB); err != nil {
		return fmt.Errorf("harness: provider: %w", err)
	}
	if err := provider.SetFaults(sc.Faults); err != nil {
		return fmt.Errorf("harness: faults: %w", err)
	}
	if err := mgr.Init(provider, sc.Profile.Instance, clock); err != nil {
		return fmt.Errorf("harness: cluster: %w", err)
	}
	root.StreamInto(streamConfigs, &ws.cfgRNG)
	ws.configs, ws.vals = sc.Space.SampleNInto(&ws.cfgRNG, sc.Spec.TotalTrials(), ws.configs, ws.vals)

	// Journal wiring. Observers latch errors inside the writer; the step
	// loop below polls jw.Err so a crash or divergence inside an event
	// callback stops the run at the next step boundary (the moral
	// equivalent of the process dying between scheduler events). The
	// snapshot closure must be registered before executor.Start because
	// Start already records events; it reads through the job pointer,
	// which is nil for those first records in every run alike.
	var job *executor.Job
	if jw != nil {
		if ctl != nil {
			ctl.SetObserver(func(d replan.Decision) { jw.Observe(decisionRecord(d)) })
		}
		rec.SetObserver(func(e trace.Event) { jw.Observe(journal.FromTrace(e)) })
		jw.SetSnapshotFunc(func() *journal.Snapshot {
			return captureSnapshot(clock, job, provider, rec, ctl, execRNG, provRNG)
		})
	}

	// Gate wiring: the executor's stage-boundary hook computes deadline
	// slack from planned work fractions, consults the gate, and records
	// the decision (artifacts + journal) before applying it. Predicted
	// remaining time scales the planned JCT by the fraction of
	// trial-iterations not yet started — analytic, so arbitration draws
	// no randomness.
	var stageGate func(stage, planned int) int
	if gate != nil {
		total := 0.0
		cum := make([]float64, sc.Spec.NumStages()+1)
		for i := 0; i < sc.Spec.NumStages(); i++ {
			st := sc.Spec.Stage(i)
			total += float64(st.Trials * st.Iters)
			cum[i+1] = total
		}
		predictedJCT := deadline
		if a.Planned {
			predictedJCT = a.Estimate.JCT
		}
		stageGate = func(stage, planned int) int {
			now := float64(clock.Now())
			remaining := predictedJCT
			if total > 0 {
				remaining = predictedJCT * (total - cum[stage]) / total
			}
			g := gate(GrantRequest{
				Stage: stage, Want: planned, Now: now,
				Deadline: deadline, PredictedRemaining: remaining,
			})
			if g < 1 {
				g = 1
			}
			if g > planned {
				g = planned
			}
			a.Grants = append(a.Grants, GrantDecision{Stage: stage, Want: planned, Granted: g, At: now})
			if jw != nil {
				jw.Observe(&journal.Grant{
					Stage: int64(stage), Want: int64(planned), Granted: int64(g), At: now,
				})
			}
			return g
		}
	}

	job, err = ws.exec.Start(executor.Config{
		Spec:             sc.Spec,
		Plan:             a.Plan,
		Model:            sc.Model,
		Batch:            sc.Model.BaseBatch,
		Configs:          ws.configs,
		Provider:         provider,
		Cluster:          mgr,
		Clock:            clock,
		RNG:              execRNG,
		DisablePlacement: sc.DisablePlacement,
		RestoreSeconds:   sc.RestoreSeconds,
		Trace:            rec,
		LatencyScale:     latencyScale,
		Replan:           ctl,
		StageGate:        stageGate,
	})
	if err != nil {
		return fmt.Errorf("harness: start: %w", err)
	}
	*dst = Running{
		a: a, jw: jw, ws: ws, clock: clock, job: job,
		provider: provider, mgr: mgr, rec: rec,
	}
	return nil
}

// prepareOn builds sc's planning profile, Simulator and Planner on ws
// and fills in a's Deadline and ProfilingDuration. It first resolves a
// zero sc.MaxGPUs to the planner's default cap, so the oracles and the
// replan controller see the cap the planner used. It returns the
// training profile the planner sees: the model's analytic profile or,
// with UseProfiler, the measured one.
func prepareOn(ws *workingSet, sc *Scenario, a *Artifacts) (sim.TrainProfile, error) {
	if sc.MaxGPUs == 0 {
		sc.MaxGPUs = planner.DefaultMaxGPUs(sc.Spec)
	}
	root := &ws.root
	scenarioRootInto(sc.BatchSeed, sc.Index, root)
	gpn := sc.Profile.Instance.GPUs
	var profile sim.TrainProfile = sim.ModelTrainProfile{
		Model:       sc.Model,
		Batch:       sc.Model.BaseBatch,
		GPUsPerNode: gpn,
	}
	if sc.UseProfiler {
		// Probe far enough to cover the largest per-trial allocation plans
		// are likely to use.
		rep, err := profiler.Profile(sc.Model, sc.Model.BaseBatch, profiler.Options{
			MaxGPUs:     max(16, 4*gpn),
			GPUsPerNode: gpn,
		}, root.Stream(streamProfiler))
		if err != nil {
			return nil, fmt.Errorf("harness: profiler: %w", err)
		}
		profile, a.ProfilingDuration = rep.Profile, rep.Duration
	}

	sm := &ws.plan
	if err := sm.Init(sc.Spec, profile, sc.Profile); err != nil {
		return nil, fmt.Errorf("harness: simulator: %w", err)
	}
	a.Deadline = sc.Deadline
	if a.Deadline <= 0 {
		a.Deadline = sm.StaticClusterJCT(sc.MaxGPUs) * sc.DeadlineFactor
	}
	ws.planner = planner.Planner{Sim: sm, Deadline: a.Deadline, MaxGPUs: sc.MaxGPUs}
	return profile, nil
}

// PlanScenario plans sc as Run would, without executing the plan. Unlike
// Run, which falls back to a minimal plan, it returns the planner's
// error: planner.ErrInfeasible when no plan within MaxGPUs meets the
// deadline.
func PlanScenario(sc Scenario) (res planner.Result, err error) {
	err = onPlanner(sc, func(p *planner.Planner) (err error) {
		res, err = p.Plan(sc.Policy)
		return err
	})
	return res, err
}

// Breakdown decomposes plan's predicted time and cost by stage on sc's
// planning Simulator, so the rows add up to the estimate PlanScenario
// reports for the same plan.
func Breakdown(sc Scenario, plan sim.Plan) (rows []sim.StageEstimate, err error) {
	err = onPlanner(sc, func(p *planner.Planner) (err error) {
		rows, err = p.Sim.Breakdown(plan)
		return err
	})
	return rows, err
}

// onPlanner builds sc's Planner as Run does, on a working set from the
// pool, and calls f with it.
func onPlanner(sc Scenario, f func(*planner.Planner) error) error {
	ws := getWorkingSet()
	defer func() {
		ws.reset()
		putWorkingSet(ws)
	}()
	if _, err := prepareOn(ws, &sc, new(Artifacts)); err != nil {
		return err
	}
	return f(&ws.planner)
}

// capGate is the scripted gate of cap-carrying scenarios: stage i is
// granted at most caps[i] GPUs — a pure function of the scenario, so
// chaos-generated gated runs stay replayable from (seed, index) alone.
func capGate(caps []int) GrantFn {
	return func(req GrantRequest) int {
		if req.Stage < len(caps) && caps[req.Stage] < req.Want {
			return caps[req.Stage]
		}
		return req.Want
	}
}

// Done reports whether the job has completed (successfully or not).
func (r *Running) Done() bool { return r.job.Done() }

// Step executes one virtual-clock event, enforcing the journal-error and
// livelock checks between events.
func (r *Running) Step() error {
	if r.jw != nil {
		if err := r.jw.Err(); err != nil {
			return err
		}
	}
	if r.a.Steps >= maxSteps {
		return errLivelock
	}
	if !r.clock.Step() {
		return fmt.Errorf("harness: event queue drained before completion")
	}
	r.a.Steps++
	return nil
}

// Stage returns the index of the stage currently executing.
func (r *Running) Stage() int { return r.job.Stage() }

// Steps returns the number of virtual-clock events executed so far.
func (r *Running) Steps() int { return r.a.Steps }

// Now returns the current virtual time in seconds.
func (r *Running) Now() float64 { return float64(r.clock.Now()) }

// CostSoFar returns the provider's accrued cost at the current instant.
func (r *Running) CostSoFar() float64 { return r.provider.TotalCost(r.clock.Now()) }

// Deadline returns the sampled job deadline in seconds.
func (r *Running) Deadline() float64 { return r.a.Deadline }

// Planned reports whether the elastic planner produced the plan.
func (r *Running) Planned() bool { return r.a.Planned }

// Plan returns the allocation plan the run started with.
func (r *Running) Plan() sim.Plan { return r.a.Plan.Clone() }

// Estimate returns the planner's prediction (valid only when Planned).
func (r *Running) Estimate() sim.Estimate { return r.a.Estimate }

// Finish completes the run's bookkeeping once Done: result extraction,
// the journal End record, and artifact assembly. The artifacts point
// into the run's working set, so they are valid until Release.
func (r *Running) Finish() (*Artifacts, error) {
	if r.finished {
		return r.a, nil
	}
	res, err := r.job.Result()
	if err != nil {
		return nil, fmt.Errorf("harness: run: %w", err)
	}
	if r.jw != nil {
		// Close the journal: an End record marks a completed (rather than
		// crashed) run.
		if err := r.jw.Record(&journal.End{
			JCT:       res.JCT,
			Cost:      res.Cost,
			BestTrial: int64(res.BestTrial),
		}); err != nil {
			return nil, err
		}
	}
	r.a.Result = res
	r.a.Recorder = r.rec
	r.a.Instances = r.provider.Instances()
	r.a.DataCost = r.provider.DataCost()
	r.a.Retries = r.mgr.Retries()
	r.finished = true
	return r.a, nil
}

// Release returns the run's working set to the pool the next
// StartScenario draws from, the recorder, trials and instance ledger the
// artifacts point into included, and clears the journal writer's
// snapshot hook, which reads that state. Call it once, after Finish,
// when the caller is done with the artifacts: they are invalid after
// Release, and so is every accessor of r. Release must not overlap
// another call on r. A second Release does nothing.
func (r *Running) Release() {
	if !r.finished {
		panic("harness: Release before Finish")
	}
	if r.ws != nil {
		r.release(putWorkingSet)
	}
}

// release unhooks the journal writer, drops r's pointers into the
// working set, resets the set and hands it to put. r may live in the
// set (Run's does), so nothing touches r once the set is put.
func (r *Running) release(put func(*workingSet)) {
	if r.jw != nil {
		r.jw.SetSnapshotFunc(nil)
	}
	ws := r.ws
	r.ws, r.clock, r.job, r.provider, r.mgr, r.rec = nil, nil, nil, nil, nil, nil
	ws.reset()
	put(ws)
}
