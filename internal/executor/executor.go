// Package executor runs a hyperparameter tuning job end-to-end over the
// (simulated) cloud: it is RubberBand's driver process (§5), comprising
// the scheduler control loop that starts, pauses, migrates and terminates
// trials, coordinates stage synchronization barriers, requests cluster
// scaling per the allocation plan, and realizes worker placement through
// the placement controller.
//
// The executor is real control-plane code — every scheduling decision
// path executes — with only training latency and the passage of time
// simulated (package model, package vclock). Its measured JCT and cost
// are the "real" columns of the paper's Table 2, which the simulator's
// predictions are validated against.
package executor

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/placement"
	"repro/internal/replan"
	"repro/internal/searchspace"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/trial"
	"repro/internal/vclock"
)

// Config parameterizes one end-to-end run.
type Config struct {
	// Spec is the declarative experiment structure.
	Spec *spec.ExperimentSpec
	// Plan is the per-stage GPU allocation to execute.
	Plan sim.Plan
	// Model and Batch define the training workload.
	Model *model.Model
	Batch int
	// Configs are the sampled hyperparameter configurations, one per
	// initial trial (length must be at least Spec.TotalTrials()).
	Configs []searchspace.Config
	// Provider and Cluster are the cloud substrate. Clock is the shared
	// virtual clock; RNG drives training noise and metric observation.
	Provider *cloud.Provider
	Cluster  *cluster.Manager
	Clock    *vclock.Clock
	RNG      *stats.RNG
	// DisablePlacement scatters each trial's workers across the maximum
	// number of nodes instead of co-locating them — the Table 1 ablation
	// baseline.
	DisablePlacement bool
	// RestoreSeconds is the latency of restoring a checkpoint into a
	// freshly placed worker gang at stage transitions.
	RestoreSeconds float64
	// Trace, if non-nil, records execution events.
	Trace *trace.Recorder
	// LatencyScale, if non-nil, multiplies every sampled iteration
	// latency by its value at the iteration's start instant — the chaos
	// harness's drift-injection hook. It must be a pure function of
	// virtual time (the scaling is applied after the RNG draw, so
	// enabling drift never shifts the random stream). Nil means 1.
	LatencyScale func(now vclock.Time) float64
	// Replan, if non-nil, is the online replanning controller: observed
	// iteration latencies and provisioning makespans are fed into its
	// drift detector, and on trigger (or preemption) the remaining plan
	// is recompiled and spliced in at the next stage boundary.
	Replan *replan.Controller
	// StageGate, if non-nil, is consulted at every stage boundary before
	// the cluster is sized: it receives the stage index and the live
	// plan's allocation and returns the GPU grant the stage actually runs
	// with. The grant is clamped to [1, planned] (1 GPU still makes
	// progress via queued trial waves) and spliced into the live plan, so
	// schedule rows and FinalPlan report what actually ran. The
	// cross-experiment arbiter in internal/serve uses this to reallocate
	// a shared cluster across jobs. Mutually exclusive with Replan: both
	// rewrite the live plan and their composition is undefined.
	StageGate func(stage, planned int) int
}

func (c *Config) validate() error {
	switch {
	case c.Spec == nil:
		return fmt.Errorf("executor: nil spec")
	case c.Model == nil:
		return fmt.Errorf("executor: nil model")
	case c.Provider == nil || c.Cluster == nil || c.Clock == nil || c.RNG == nil:
		return fmt.Errorf("executor: nil substrate component")
	case c.Batch < 1:
		return fmt.Errorf("executor: batch %d", c.Batch)
	case c.RestoreSeconds < 0:
		return fmt.Errorf("executor: negative restore latency")
	case c.StageGate != nil && c.Replan != nil:
		return fmt.Errorf("executor: StageGate and Replan both set")
	}
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	if err := c.Plan.Validate(c.Spec.NumStages()); err != nil {
		return err
	}
	if len(c.Configs) < c.Spec.TotalTrials() {
		return fmt.Errorf("executor: %d configs for %d trials", len(c.Configs), c.Spec.TotalTrials())
	}
	return nil
}

// StageRow summarizes one executed stage — the rows of Table 3.
type StageRow struct {
	Stage        int
	IterStart    int // cumulative iterations at stage start
	IterEnd      int // cumulative iterations at stage end
	Trials       int
	GPUsPerTrial int
	ClusterNodes int
	Start, End   vclock.Time
	// Cost is the realized billing accrued between the previous barrier
	// and this stage's barrier (provisioning included).
	Cost float64
}

// Result is the outcome of an end-to-end run.
type Result struct {
	// JCT is the wall-clock (virtual) job completion time in seconds.
	JCT float64
	// Cost is the total billed cost (compute + data ingress).
	Cost float64
	// BestTrial and BestAccuracy identify the winning configuration.
	BestTrial    trial.ID
	BestAccuracy float64
	BestConfig   searchspace.Config
	// Schedule is the realized per-stage schedule.
	Schedule []StageRow
	// Utilization is busy GPU-seconds divided by provisioned
	// GPU-seconds.
	Utilization float64
	// Preemptions is the number of cluster nodes lost to spot
	// reclamation during the run.
	Preemptions int
	// Trials exposes the final trial objects for inspection.
	Trials []*trial.Trial
	// Replans is the ordered list of replanning decisions taken during
	// the run (empty without a replan controller).
	Replans []replan.Decision
	// FinalPlan is the plan actually executed: the configured plan with
	// every adopted replan spliced in. Equal to the input plan when no
	// replan was adopted.
	FinalPlan sim.Plan
}

// run carries the mutable state of one execution.
type run struct {
	cfg    Config
	tr     *trace.Recorder
	trials []*trial.Trial
	// asym is each trial's accuracy asymptote: fixed by its config, so
	// computed once at Start rather than per observed iteration. growth
	// is the learning curve's progress by cumulative iteration count,
	// 0..Spec.MaxIters(): every trial of a stage observes the same counts,
	// so each exp is taken once per run. Both are carved from one block.
	asym, growth []float64
	ctrl         *placement.Controller
	store        *trial.Store

	stage int
	need  int // node target of the current stage
	// plan is the live placement, which the controller's Remove edits in
	// place; prevPlan is syncBarrier's copy for the migration count.
	plan      placement.Plan
	prevPlan  placement.Plan
	remaining int
	queue     []trial.ID
	stageSet  []trial.ID // trials participating in the current stage
	// ranked is syncBarrier's ranking buffer, reused at every barrier.
	ranked []*trial.Trial
	// note is the buffer every free-form trace note is built in; the
	// recorder copies each one into its arena.
	note []byte
	// soa is the dense per-trial scheduler state (allocations, iteration
	// budgets, barrier marks, restart generations).
	soa trialSoA
	// gang is each running trial's placement resolved to its nodes, in
	// node-ID order: startTrial fills it from the live plan, so metering an
	// iteration never walks an Assignment map. Placement preserves a
	// running gang until the trial restarts, which refills it. Gangs are
	// carved from gangSlab (see resolveGang).
	gang     [][]gangSlot
	gangSlab []gangSlot
	// beginFn is beginTraining bound once, the callback of every stage
	// start's WhenSize; dispatchFn and preemptFn are dispatch and
	// onPreemption, bound once for the clock and the cluster manager.
	beginFn    func()
	dispatchFn vclock.Dispatcher
	preemptFn  func(*cluster.Node)
	// dispID is the run's opcode dispatcher on the shared clock: the
	// training hot loop schedules (opcode, trial, gen) events instead of
	// closures, so steady-state iteration events allocate nothing.
	dispID vclock.DispatchID
	// pendingRestart holds preempted trials (and their per-trial
	// allocations) awaiting replacement capacity.
	pendingRestart []restartEntry
	// preemptions counts nodes lost during the run.
	preemptions int

	// execPlan is the live plan: a copy of cfg.Plan, in storage the
	// workspace keeps, that adopted replans overwrite with their spliced
	// plan. The executor never reads cfg.Plan.Alloc after Start so the
	// caller's copy stays pristine.
	execPlan sim.Plan
	// replanAdopted marks that at least one replan changed the plan;
	// subsequent stage starts annotate their placement churn.
	replanAdopted bool
	// scaledUp/scaleReqAt track an outstanding scale-up request so its
	// realized provisioning makespan can be fed to the drift detector.
	scaledUp   bool
	scaleReqAt vclock.Time

	rows []StageRow
	// costAtLastBarrier tracks cumulative billing for per-stage
	// attribution.
	costAtLastBarrier float64
	done              bool
	finishedAt        vclock.Time
	err               error
}

// gangSlot is the share of a trial's gang on one node.
type gangSlot struct {
	node *cluster.Node
	gpus int
}

// restartEntry is one preempted trial queued for recovery.
type restartEntry struct {
	id    trial.ID
	alloc int
}

// Opcodes for the run's event dispatcher — the stats.Lat opcode
// pattern applied to the training hot loop. Every steady-state event a
// trial schedules is one of these, carrying (trial, generation) packed
// into the first operand; firing one goes through vclock's zero-alloc
// dispatch path instead of a per-event closure.
const (
	// opBegin starts (or resumes) a trial's iteration loop after the
	// checkpoint-restore latency.
	opBegin uint8 = iota
	// opIterEnd completes one training iteration; its second operand
	// carries the iteration's sampled duration as IEEE-754 bits.
	opIterEnd
)

// packTrial packs a trial ID and its restart generation into one opcode
// operand.
func packTrial(id trial.ID, gen uint32) int64 {
	return int64(uint32(id)) | int64(gen)<<32
}

// dispatch is the run's opcode handler. Stale events — scheduled under
// a generation the trial has since restarted past — return without
// effect, exactly like the closure-generation checks they replace.
func (r *run) dispatch(op uint8, a, b int64) {
	id := trial.ID(uint32(a))
	gen := uint32(uint64(a) >> 32)
	switch op {
	case opBegin:
		if r.soa.gen[id] != gen {
			return // preempted before training began
		}
		r.runIteration(id)
	case opIterEnd:
		if r.err != nil {
			return
		}
		if r.soa.gen[id] != gen {
			return // stale: the trial restarted after a preemption
		}
		r.iterEnd(id, math.Float64frombits(uint64(b)))
	}
}

// Job is a started execution. Several jobs can share one virtual clock
// (each with its own cluster manager and provider accounting), enabling
// concurrent multi-job execution such as Hyperband's bracket collection.
type Job struct {
	r *run
}

// Workspace is the storage one job runs on: its trial block, its dense
// scheduler columns, its gang slab, its ranking, stage-set, row and plan
// buffers, its placement controller and its checkpoint store. Start runs
// each job on a workspace of its own; a caller that runs jobs one after
// another can instead start each on the workspace the last one finished
// on, after Reset, and reuse all of that storage. The zero value is ready
// to use.
type Workspace struct {
	r     run
	job   Job
	ctrl  placement.Controller
	store trial.Store
	// block holds the trials r.trials points to; curve backs r.asym and
	// r.growth.
	block []trial.Trial
	curve []float64
}

// Start validates the configuration and schedules the job's first stage
// on the virtual clock without driving it. The caller advances the shared
// clock (typically via Wait or vclock.Clock.RunUntil) until Done.
func Start(cfg Config) (*Job, error) { return new(Workspace).Start(cfg) }

// Start starts a job on w's storage, exactly as the package-level Start
// does. w must be new or Reset; it belongs to the job, and its trials to
// the job's Result, until the caller Resets w again.
func (w *Workspace) Start(cfg Config) (*Job, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	tr := cfg.Trace
	if tr == nil {
		// Always keep an internal recorder so utilization accounting
		// works even when the caller doesn't want the event log.
		tr = trace.New()
	}
	n := cfg.Spec.TotalTrials()
	w.ctrl.Reset(cfg.Cluster.GPUsPerNode())
	w.store.Reset(n)
	r := &w.r
	r.cfg, r.tr, r.ctrl, r.store = cfg, tr, &w.ctrl, &w.store
	r.execPlan.Alloc = append(r.execPlan.Alloc[:0], cfg.Plan.Alloc...)
	r.soa.init(n)
	r.gang = zeroed(r.gang, n)
	r.trials = zeroed(r.trials, n)
	w.block = zeroed(w.block, n) // the run's trials, carved from one block
	w.curve = zeroed(w.curve, n+cfg.Spec.MaxIters()+1)
	r.asym, r.growth = w.curve[:n:n], w.curve[n:]
	for i := range r.trials {
		r.trials[i] = &w.block[i]
		r.trials[i].Init(trial.ID(i), cfg.Configs[i])
		r.asym[i] = cfg.Model.Asymptote(cfg.Configs[i])
	}
	for k := range r.growth {
		r.growth[k] = cfg.Model.Growth(k)
	}
	if r.beginFn == nil {
		// Bound once per workspace: the method values hold only r.
		r.beginFn, r.dispatchFn, r.preemptFn = r.beginTraining, r.dispatch, r.onPreemption
	}
	r.dispID = cfg.Clock.RegisterDispatcher(r.dispatchFn)
	cfg.Cluster.SetPreemptionHandler(r.preemptFn)
	r.startStage(0)
	w.job.r = r
	return &w.job, nil
}

// Reset drops the job w last ran: its configuration, substrate, trials,
// plans and every pointer its buffers held, keeping the buffers' storage
// for the next Start. The caller must be done with the job and its
// Result, whose trials are w's, unless DetachTrials gave them away.
func (w *Workspace) Reset() {
	r := &w.r
	clear(w.block)
	clear(r.trials)
	clear(r.ranked[:cap(r.ranked)])
	clear(r.gang)
	clear(r.gangSlab[:cap(r.gangSlab)])
	clear(r.prevPlan[:cap(r.prevPlan)])
	*r = run{
		trials: r.trials[:0], ranked: r.ranked[:0], stageSet: r.stageSet[:0],
		gang: r.gang[:0], gangSlab: r.gangSlab[:0], prevPlan: r.prevPlan[:0],
		rows: r.rows[:0], soa: r.soa, execPlan: sim.Plan{Alloc: r.execPlan.Alloc[:0]}, note: r.note[:0],
		beginFn: r.beginFn, dispatchFn: r.dispatchFn, preemptFn: r.preemptFn,
	}
	w.block = w.block[:0]
	w.job = Job{}
}

// DetachTrials gives the job's trials to its Result for good: they stay
// valid after Reset, and the next Start carves trials of its own.
func (w *Workspace) DetachTrials() {
	w.block, w.r.trials = nil, nil
}

// zeroed returns buf with length n and every element zero, reusing its
// storage when it is large enough.
func zeroed[S ~[]E, E any](buf S, n int) S {
	if cap(buf) < n {
		return make(S, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// Trace notes: each helper appends one note's text to b exactly as the
// fmt format beside it renders it, so the executor builds every note in
// its one reused buffer (run.note) and never formats text.

// appendNodesNote appends a scaling note: "to %d nodes".
//
//rbvet:noalloc
func appendNodesNote(b []byte, nodes int) []byte {
	return append(strconv.AppendInt(append(b, "to "...), int64(nodes), 10), " nodes"...)
}

// appendStageNote appends a stage start's note: "%d trials x %d iters @
// %d GPUs/trial".
//
//rbvet:noalloc
func appendStageNote(b []byte, trials, iters, per int) []byte {
	b = strconv.AppendInt(b, int64(trials), 10)
	b = strconv.AppendInt(append(b, " trials x "...), int64(iters), 10)
	b = strconv.AppendInt(append(b, " iters @ "...), int64(per), 10)
	return append(b, " GPUs/trial"...)
}

// appendMovedNote appends the migration churn of a stage start after an
// adopted replan: ", %d gang(s) moved".
//
//rbvet:noalloc
func appendMovedNote(b []byte, moved int) []byte {
	return append(strconv.AppendInt(append(b, ", "...), int64(moved), 10), " gang(s) moved"...)
}

// appendDriftNote appends a drift trigger's note: "gpus=%d".
//
//rbvet:noalloc
func appendDriftNote(b []byte, gpus int) []byte {
	return strconv.AppendInt(append(b, "gpus="...), int64(gpus), 10)
}

// appendPreemptedNote appends a preemption's note: "node %d preempted".
//
//rbvet:noalloc
func appendPreemptedNote(b []byte, node cluster.NodeID) []byte {
	return append(strconv.AppendInt(append(b, "node "...), int64(node), 10), " preempted"...)
}

// Done reports whether the job has completed (successfully or not).
func (j *Job) Done() bool { return j.r.done || j.r.err != nil }

// Stage returns the index of the stage currently executing (the final
// stage after completion).
func (j *Job) Stage() int { return j.r.stage }

// CurrentPlan returns a clone of the live execution plan — the
// configured plan with every adopted replan spliced in so far.
func (j *Job) CurrentPlan() sim.Plan { return j.r.execPlan.Clone() }

// Trials returns the job's trial objects in trial-ID order. Callers must
// treat them as read-only; control-plane snapshots read their state.
func (j *Job) Trials() []*trial.Trial { return j.r.trials }

// StateFold returns a fingerprint of the scheduler's dense per-trial
// state (allocations, iteration budgets, barrier marks, restart
// generations). Journal snapshots capture it so crash recovery verifies
// the re-executed scheduler — not just trial-visible state — converged
// to the original run.
func (j *Job) StateFold() uint64 { return j.r.soa.fold() }

// Result returns the realized result once the job is done.
func (j *Job) Result() (*Result, error) {
	if j.r.err != nil {
		return nil, j.r.err
	}
	if !j.r.done {
		return nil, fmt.Errorf("executor: job still running (stage %d)", j.r.stage)
	}
	return j.r.buildResult(), nil
}

// Run executes the job to completion in virtual time and returns the
// realized result.
func Run(cfg Config) (*Result, error) {
	j, err := Start(cfg)
	if err != nil {
		return nil, err
	}
	cfg.Clock.RunUntil(j.Done)
	if !j.Done() {
		return nil, fmt.Errorf("executor: event queue drained before completion (stage %d)", j.r.stage)
	}
	return j.Result()
}

// fail aborts the run.
func (r *run) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// survivors returns trials eligible for the given stage: Pending before
// stage 0, Paused afterwards. The list lives in the barrier's ranking
// buffer, which is idle from one barrier to the next stage start, and
// is valid until the next barrier.
func (r *run) survivors() []*trial.Trial {
	out := r.ranked[:0]
	for _, t := range r.trials {
		if t.State() == trial.Pending || t.State() == trial.Paused {
			out = append(out, t)
		}
	}
	r.ranked = out
	return out
}

// startStage scales the cluster for stage i and begins training when the
// nodes are ready.
func (r *run) startStage(i int) {
	r.stage = i
	st := r.cfg.Spec.Stage(i)
	if gate := r.cfg.StageGate; gate != nil {
		// Stage-boundary arbitration: the gate's grant replaces the
		// planned allocation in the live plan before any sizing math, so
		// every downstream reader (gang shapes, schedule rows, FinalPlan)
		// sees the granted value.
		planned := r.execPlan.Alloc[i]
		grant := gate(i, planned)
		if grant < 1 {
			grant = 1
		}
		if grant > planned {
			grant = planned
		}
		r.execPlan.Alloc[i] = grant
	}
	alloc := r.execPlan.Alloc[i]
	gpn := r.cfg.Cluster.GPUsPerNode()

	var need int
	if alloc >= st.Trials {
		need = placement.NodesNeeded(st.Trials, alloc/st.Trials, gpn)
	} else {
		need = placement.NodesNeeded(alloc, 1, gpn)
	}

	r.need = need
	now := r.cfg.Clock.Now()
	if cur := r.cfg.Cluster.Size(); cur > need {
		// Bin-pack-then-drain: release the emptiest nodes first. At a
		// stage boundary all trials are paused (no live placements), so
		// this releases the newest nodes deterministically.
		order := r.ctrl.DrainOrder(r.cfg.Cluster.Ready())
		for _, id := range order[:cur-need] {
			if err := r.cfg.Cluster.Release(id); err != nil {
				r.fail(err)
				return
			}
		}
		r.note = appendNodesNote(r.note[:0], need)
		r.tr.RecordBytes(now, trace.KindScaleDown, i, -1, r.note)
		r.scaledUp = false
	} else if cur < need {
		r.cfg.Cluster.ScaleUpTo(need)
		r.note = appendNodesNote(r.note[:0], need)
		r.tr.RecordBytes(now, trace.KindScaleUp, i, -1, r.note)
		r.scaledUp = true
		r.scaleReqAt = now
	} else {
		r.scaledUp = false
	}
	r.cfg.Cluster.WhenSize(need, r.beginFn)
}

// beginTraining places and starts the stage's trials once capacity is
// ready.
func (r *run) beginTraining() {
	if r.err != nil {
		return
	}
	st := r.cfg.Spec.Stage(r.stage)
	alloc := r.execPlan.Alloc[r.stage]
	if rc := r.cfg.Replan; rc != nil && r.scaledUp {
		rc.ObserveProvision(float64(r.cfg.Clock.Now() - r.scaleReqAt))
		r.scaledUp = false
	}
	surv := r.survivors()
	if len(surv) != st.Trials {
		r.fail(fmt.Errorf("executor: stage %d has %d survivors, spec wants %d", r.stage, len(surv), st.Trials))
		return
	}

	per := sim.GPUsPerTrial(alloc, st.Trials)
	r.stageSet = r.stageSet[:0]
	r.soa.resetStage()
	r.pendingRestart = nil
	for _, t := range surv {
		r.stageSet = append(r.stageSet, t.ID())
	}
	// Trials beyond the stage's slots queue for one in survivor order:
	// the queue is the stage set's tail, consumed from the front.
	runnable := surv
	r.queue = nil
	if alloc < st.Trials {
		runnable = surv[:alloc]
		r.queue = r.stageSet[alloc:len(r.stageSet):len(r.stageSet)]
	}
	for _, t := range runnable {
		r.soa.setAlloc(t.ID(), per)
	}

	if err := r.place(); err != nil {
		r.fail(err)
		return
	}

	r.remaining = st.Trials
	start := r.cfg.Clock.Now()
	r.rows = append(r.rows, StageRow{
		Stage:        r.stage,
		IterStart:    r.cumItersBefore(r.stage),
		IterEnd:      r.cumItersBefore(r.stage) + st.Iters,
		Trials:       st.Trials,
		GPUsPerTrial: per,
		ClusterNodes: r.cfg.Cluster.Size(),
		Start:        start,
	})
	r.note = appendStageNote(r.note[:0], st.Trials, st.Iters, per)
	if r.replanAdopted {
		// Annotate the migration churn a spliced plan induced. Notes are
		// excluded from run digests, so the annotation cannot perturb
		// replay or worker-invariance checks.
		r.note = appendMovedNote(r.note, placement.Moves(r.prevPlan, r.plan))
	}
	r.tr.RecordBytes(start, trace.KindStageStart, r.stage, -1, r.note)

	for _, t := range runnable {
		r.startTrial(t, st.Iters, r.stage > 0)
	}
}

// cumItersBefore returns the cumulative iterations a survivor has executed
// before the given stage.
func (r *run) cumItersBefore(stage int) int {
	total := 0
	for i := 0; i < stage; i++ {
		total += r.cfg.Spec.Stage(i).Iters
	}
	return total
}

// place computes the placement for the current allocs, either through the
// placement controller (co-locating) or by deliberate scattering (the
// ablation baseline).
func (r *run) place() error {
	if r.cfg.DisablePlacement {
		r.plan = scatter(r.soa.alloc, r.cfg.Cluster.Ready(), r.plan)
		if r.plan == nil {
			return fmt.Errorf("executor: scatter placement failed")
		}
		return nil
	}
	plan, err := r.ctrl.Update(r.soa.alloc, r.cfg.Cluster.Ready())
	if err != nil {
		return err
	}
	r.plan = plan
	return nil
}

// scatter assigns GPUs one at a time to the node with the most free
// capacity — a worst-fit spread that models a locality-unaware scheduler.
// Trials already placed in prev keep their gangs when the allocation is
// unchanged and every node still has the capacity: a slot hand-off or a
// recovery re-place must not teleport a running gang to different GPUs
// mid-iteration, or the freed-looking GPUs get double-booked (the same
// preservation contract as placement.Controller.Update).
func scatter(allocs []int32, nodes []*cluster.Node, prev placement.Plan) placement.Plan {
	// free and took are indexed by position in nodes, so both are sized
	// by the live node count however large the IDs grow under churn.
	free := make([]int, len(nodes))
	for i, n := range nodes {
		free[i] = n.GPUs
	}
	at := func(id cluster.NodeID) int {
		return slices.IndexFunc(nodes, func(n *cluster.Node) bool { return n.ID == id })
	}

	plan := make(placement.Plan, len(allocs))
	for t, want := range allocs {
		if want < 0 || t >= len(prev) || prev[t].GPUs() != int(want) {
			continue
		}
		asg := prev[t]
		ok := true
		for _, s := range asg {
			i := at(s.Node)
			ok = ok && i >= 0 && free[i] >= s.GPUs
		}
		if !ok {
			continue // a gang node vanished (preemption); re-place below
		}
		for _, s := range asg {
			free[at(s.Node)] -= s.GPUs
		}
		plan[t] = asg // assignments are never edited: share, don't clone
	}
	took := make([]int, len(nodes))
	for t, want := range allocs {
		if want < 0 || plan[t] != nil {
			continue
		}
		clear(took)
		for g := int32(0); g < want; g++ {
			best, bestFree := -1, -1
			for i, f := range free {
				if f > bestFree {
					best, bestFree = i, f
				}
			}
			if bestFree < 1 {
				return nil
			}
			free[best]--
			took[best]++
		}
		var asg placement.Assignment
		for i, g := range took {
			if g > 0 {
				asg = append(asg, placement.Slot{Node: nodes[i].ID, GPUs: g})
			}
		}
		slices.SortFunc(asg, func(a, b placement.Slot) int { return cmp.Compare(a.Node, b.Node) })
		plan[t] = asg
	}
	return plan
}

// startTrial starts (or resumes) a trial for the current stage and
// schedules its iterations. withRestore adds the checkpoint-fetch latency
// (stage migrations and preemption recoveries).
func (r *run) startTrial(t *trial.Trial, iters int, withRestore bool) {
	asg := r.plan[placement.TrialID(t.ID())]
	gpus, nodes := asg.GPUs(), asg.Nodes()
	if err := r.resolveGang(t.ID(), asg); err != nil {
		r.fail(err)
		return
	}
	if err := t.Start(gpus, nodes); err != nil {
		r.fail(err)
		return
	}
	now := r.cfg.Clock.Now()
	restore := 0.0
	if withRestore {
		// Migration or recovery: fetch the checkpoint from the store
		// into the new worker gang.
		if _, ok := r.store.Get(t.ID()); !ok {
			r.fail(fmt.Errorf("executor: trial %d missing checkpoint at stage %d", t.ID(), r.stage))
			return
		}
		restore = r.cfg.RestoreSeconds
		r.tr.Record(now, trace.KindRestore, r.stage, int(t.ID()), "")
	}
	// Persist a stage-start checkpoint so a preemption mid-stage can
	// recover by replaying only this stage.
	ck, err := t.Checkpoint()
	if err != nil {
		r.fail(err)
		return
	}
	r.store.Put(ck)
	r.tr.RecordGang(now, trace.KindTrialStart, r.stage, int(t.ID()), gpus, nodes)
	r.soa.left[t.ID()] = int32(iters)
	r.cfg.Clock.AtOp(now+vclock.Time(restore), r.dispID, opBegin,
		packTrial(t.ID(), r.soa.gen[t.ID()]), 0)
}

// resolveGang fills the trial's gang from its assignment, looking each
// node up among the ready nodes the assignment was just placed on. The
// slots come in node order, so the gang does too. A gang too short for
// the assignment is carved afresh from the run's gang slab.
func (r *run) resolveGang(id trial.ID, asg placement.Assignment) error {
	ready := r.cfg.Cluster.Ready()
	if cap(r.gang[id]) < len(asg) {
		r.gang[id] = r.carveGang(len(asg))
	}
	gang := r.gang[id][:0]
	for _, s := range asg {
		i, ok := slices.BinarySearchFunc(ready, s.Node, func(n *cluster.Node, want cluster.NodeID) int {
			return cmp.Compare(n.ID, want)
		})
		if !ok {
			return fmt.Errorf("executor: trial %d placed on missing node %d", id, s.Node)
		}
		gang = append(gang, gangSlot{node: ready[i], gpus: s.GPUs})
	}
	r.gang[id] = gang
	return nil
}

// carveGang returns an empty gang with room for n slots, carved from the
// run's gang slab. A full slab moves on to a fresh chunk, at least twice
// its size; gangs carved earlier keep the old one.
func (r *run) carveGang(n int) []gangSlot {
	b := r.gangSlab
	if len(b)+n > cap(b) {
		b = make([]gangSlot, 0, max(2*cap(b), n, len(r.trials)))
	}
	r.gangSlab = b[:len(b)+n]
	return b[len(b) : len(b) : len(b)+n]
}

// runIteration schedules one training iteration of the trial: it draws
// the iteration latency and enqueues the opIterEnd event that completes
// it. Reading the gang at both ends — its GPU count from the trial's
// allocation, its spread from the trial, its nodes from r.gang — is
// sound because placement gives every trial exactly its allocation and
// preserves running gangs (the contract documented on scatter and
// placement.Controller.Update); any move implies a restart, which bumps
// the generation and strands this event.
func (r *run) runIteration(id trial.ID) {
	if r.err != nil {
		return
	}
	gpus, spread := r.soa.allocOf(id), r.trials[id].Nodes()
	dur := r.cfg.Model.SampleIterLatency(r.cfg.Batch, gpus, spread, r.cfg.RNG)
	if r.cfg.LatencyScale != nil {
		// Drift injection: scale after the draw so the RNG stream is
		// byte-identical with and without drift.
		dur *= r.cfg.LatencyScale(r.cfg.Clock.Now())
	}
	r.cfg.Clock.AtOp(r.cfg.Clock.Now()+vclock.Time(dur), r.dispID, opIterEnd,
		packTrial(id, r.soa.gen[id]), int64(math.Float64bits(dur)))
}

// iterEnd completes one training iteration: meter usage, observe the
// metric, feed the drift detector, then either schedule the next
// iteration or report the trial done with its stage budget.
func (r *run) iterEnd(id trial.ID, dur float64) {
	t := r.trials[id]
	gpus := r.soa.allocOf(id)
	// Meter usage for per-function billing and utilization.
	for _, s := range r.gang[id] {
		r.cfg.Provider.RecordUsage(s.node.Instance, float64(s.gpus)*dur)
	}
	r.tr.AddBusy(float64(gpus) * dur)

	acc := r.cfg.Model.ObserveGrown(r.asym[id], r.growth[t.CumIters()+1], r.cfg.RNG)
	now := r.cfg.Clock.Now()
	if err := t.RecordIteration(acc, now); err != nil {
		r.fail(err)
		return
	}
	r.tr.RecordIter(now, r.stage, int(id), acc)
	if rc := r.cfg.Replan; rc != nil {
		// Feed the observation unconditionally; only replan when a
		// future stage remains to be rewritten.
		if rc.ObserveIteration(gpus, dur, now) && r.stage < r.cfg.Spec.NumStages()-1 {
			r.note = appendDriftNote(r.note[:0], gpus)
			r.tr.RecordBytes(now, trace.KindDriftTrigger, r.stage, int(id), r.note)
			r.doReplan(replan.ReasonDrift)
			if r.err != nil {
				return
			}
		}
	}
	r.soa.left[id]--
	if r.soa.left[id] > 0 {
		r.runIteration(id)
		return
	}
	r.trialStageDone(t)
}

// doReplan asks the replan controller for a decision about the remaining
// stages and splices an adopted plan into the live execution plan. The
// current stage keeps running under its existing allocation either way —
// plan surgery lands at the next stage boundary, where all trials are
// paused and migration is a checkpoint restore, not a gang teleport.
func (r *run) doReplan(reason replan.Reason) {
	rc := r.cfg.Replan
	now := r.cfg.Clock.Now()
	d, err := rc.Replan(replan.State{
		Stage:          r.stage,
		Now:            now,
		RemainingIters: r.remainingStageIters(),
		Plan:           r.execPlan, // Replan keeps only a copy
	}, reason)
	if err != nil {
		r.fail(err)
		return
	}
	r.note = d.AppendNote(r.note[:0])
	r.tr.RecordBytes(now, trace.KindReplan, r.stage, -1, r.note)
	if d.Adopted {
		// The decision's plan is the controller's; the live plan keeps
		// its own recycled storage and takes a copy.
		r.execPlan.Alloc = append(r.execPlan.Alloc[:0], d.NewPlan.Alloc...)
		r.replanAdopted = true
	}
}

// remainingStageIters conservatively estimates the iterations still
// standing between now and the current stage's barrier along the critical
// path: the furthest-behind runner's remainder, a full stage budget for
// any preemption-recovery restart, plus a full budget per queued wave.
func (r *run) remainingStageIters() int {
	st := r.cfg.Spec.Stage(r.stage)
	end := r.cumItersBefore(r.stage) + st.Iters
	left := 0
	for _, t := range r.trials {
		if t.State() != trial.Running || r.soa.done[t.ID()] {
			continue
		}
		if l := end - t.CumIters(); l > left {
			left = l
		}
	}
	if len(r.pendingRestart) > 0 && st.Iters > left {
		left = st.Iters
	}
	if n := len(r.queue); n > 0 {
		slots := r.soa.slots
		if slots < 1 {
			slots = 1
		}
		left += (n + slots - 1) / slots * st.Iters
	}
	return left
}

// trialStageDone handles a trial finishing its stage budget: hand its slot
// to a queued trial if any, otherwise wait for the synchronization
// barrier.
func (r *run) trialStageDone(t *trial.Trial) {
	now := r.cfg.Clock.Now()
	r.tr.Record(now, trace.KindTrialDone, r.stage, int(t.ID()), "")
	r.remaining--
	r.soa.markDone(t.ID())

	if len(r.queue) > 0 {
		// Reassign the freed slot to the next queued trial.
		nextID := r.queue[0]
		r.queue = r.queue[1:]
		// The finished trial leaves the allocation, so the Update in
		// place drops its gang without a separate Remove.
		per := r.soa.allocOf(t.ID())
		r.soa.clearAlloc(t.ID())
		r.soa.setAlloc(nextID, per)
		if err := r.place(); err != nil {
			r.fail(err)
			return
		}
		r.startTrial(r.trials[nextID], r.cfg.Spec.Stage(r.stage).Iters, r.stage > 0)
	}

	if r.remaining == 0 {
		r.syncBarrier()
	}
}

// onPreemption recovers from the loss of a ready node: trials whose gangs
// touched it are rolled back to their stage-start checkpoints and
// restarted once the cluster manager's automatic replacement is ready.
// Trials that had already finished the stage keep their results — only
// idle workers were lost.
func (r *run) onPreemption(node *cluster.Node) {
	if r.err != nil || r.done {
		return
	}
	r.preemptions++
	now := r.cfg.Clock.Now()
	r.note = appendPreemptedNote(r.note[:0], node.ID)
	r.tr.RecordBytes(now, trace.KindScaleDown, r.stage, -1, r.note)
	if rc := r.cfg.Replan; rc != nil && r.stage < r.cfg.Spec.NumStages()-1 && rc.PreemptionTrigger(now) {
		// The scale_down event above is the trigger evidence; no separate
		// drift_trigger record for preemption-initiated replans.
		r.doReplan(replan.ReasonPreemption)
		if r.err != nil {
			return
		}
	}

	var affected []trial.ID
	for pid, asg := range r.plan {
		id := trial.ID(pid)
		hit := slices.ContainsFunc(asg, func(s placement.Slot) bool { return s.Node == node.ID })
		if !hit || r.soa.done[id] {
			continue // untouched, or finished this stage: nothing running was lost
		}
		if r.trials[id].State() == trial.Running {
			affected = append(affected, id)
		}
	}

	for _, id := range affected {
		t := r.trials[int(id)]
		r.soa.gen[id]++ // invalidate in-flight iteration events
		if err := t.Preempt(); err != nil {
			r.fail(err)
			return
		}
		ck, ok := r.store.Get(id)
		if !ok {
			r.fail(fmt.Errorf("executor: preempted trial %d has no checkpoint", id))
			return
		}
		if err := t.Restore(ck); err != nil {
			r.fail(err)
			return
		}
		r.pendingRestart = append(r.pendingRestart, restartEntry{
			id:    id,
			alloc: r.soa.allocOf(id),
		})
		r.soa.clearAlloc(id)
		r.ctrl.Remove(placement.TrialID(id))
		r.tr.Record(now, trace.KindTrialPause, r.stage, int(id), "preempted; will restart stage")
	}
	if len(affected) == 0 {
		return
	}
	// The cluster manager has already requested a replacement node;
	// restart the affected trials when capacity is back.
	r.cfg.Cluster.WhenSize(r.need, func() { r.recoverPreempted() })
}

// recoverPreempted re-places and restarts every trial queued by
// onPreemption.
func (r *run) recoverPreempted() {
	if r.err != nil || r.done || len(r.pendingRestart) == 0 {
		return
	}
	pending := r.pendingRestart
	r.pendingRestart = nil

	for _, e := range pending {
		r.soa.setAlloc(e.id, e.alloc)
	}
	if err := r.place(); err != nil {
		r.fail(err)
		return
	}
	iters := r.cfg.Spec.Stage(r.stage).Iters
	for _, e := range pending {
		r.startTrial(r.trials[int(e.id)], iters, true)
	}
}

// syncBarrier implements the SYNC node: rank the stage's trials, promote
// the top performers, terminate the rest, then either advance to the next
// stage or finish.
func (r *run) syncBarrier() {
	now := r.cfg.Clock.Now()
	r.rows[len(r.rows)-1].End = now
	cum := r.cfg.Provider.TotalCost(now)
	r.rows[len(r.rows)-1].Cost = cum - r.costAtLastBarrier
	r.costAtLastBarrier = cum
	r.tr.Record(now, trace.KindStageEnd, r.stage, -1, "")

	// Rank this stage's participants by their latest observed accuracy,
	// descending, then by ID: accuracies are clamped to [0, 1] and IDs are
	// distinct, so the order is total and any sort gives the same ranking.
	ranked := slices.Grow(r.ranked[:0], len(r.stageSet))
	for _, id := range r.stageSet {
		ranked = append(ranked, r.trials[int(id)])
	}
	r.ranked = ranked
	slices.SortFunc(ranked, byAccuracy)

	// The Removes below edit r.plan in place; keep the stage's gangs for
	// the next stage start's migration count.
	r.prevPlan = append(r.prevPlan[:0], r.plan...)
	last := r.stage == r.cfg.Spec.NumStages()-1
	keep := 0
	if !last {
		keep = r.cfg.Spec.Stage(r.stage + 1).Trials
	}

	for idx, t := range ranked {
		pid := placement.TrialID(t.ID())
		if !last && idx < keep {
			ck, err := t.Checkpoint()
			if err != nil {
				r.fail(err)
				return
			}
			r.store.Put(ck)
			r.tr.Record(now, trace.KindCheckpoint, r.stage, int(t.ID()), "")
			if err := t.Pause(); err != nil {
				r.fail(err)
				return
			}
		} else if last && idx == 0 {
			if err := t.Complete(); err != nil {
				r.fail(err)
				return
			}
		} else {
			if err := t.Terminate(); err != nil {
				r.fail(err)
				return
			}
			r.store.Delete(t.ID())
			r.tr.Record(now, trace.KindTrialKill, r.stage, int(t.ID()), "")
		}
		r.ctrl.Remove(pid)
		r.soa.clearAlloc(t.ID())
	}

	if last {
		r.finish()
		return
	}
	r.startStage(r.stage + 1)
}

// byAccuracy orders trials by latest accuracy descending, then by ID
// ascending.
func byAccuracy(a, b *trial.Trial) int {
	aa, _ := a.LatestAccuracy()
	ab, _ := b.LatestAccuracy()
	if c := cmp.Compare(ab, aa); c != 0 {
		return c
	}
	return cmp.Compare(a.ID(), b.ID())
}

// finish releases the cluster and marks completion.
func (r *run) finish() {
	r.cfg.Cluster.ReleaseAll()
	r.done = true
	r.finishedAt = r.cfg.Clock.Now()
}

// buildResult assembles the Result after completion. Times are taken at
// the job's own finish instant so that jobs sharing a clock with others
// (multi-job execution) report their individual JCT.
func (r *run) buildResult() *Result {
	now := r.finishedAt
	res := &Result{
		JCT:         float64(now),
		Cost:        r.cfg.Provider.TotalCost(now),
		Schedule:    append([]StageRow(nil), r.rows...),
		Preemptions: r.preemptions,
		Trials:      r.trials,
		FinalPlan:   r.execPlan.Clone(),
	}
	if rc := r.cfg.Replan; rc != nil {
		res.Replans = rc.Decisions()
	}
	res.BestTrial = -1
	for _, t := range r.trials {
		if t.State() != trial.Completed {
			continue
		}
		if acc, ok := t.LatestAccuracy(); ok && (res.BestTrial < 0 || acc > res.BestAccuracy) {
			res.BestTrial = t.ID()
			res.BestAccuracy = acc
			res.BestConfig = t.Config()
		}
	}
	if provisioned := r.cfg.Provider.BilledGPUSeconds(now); provisioned > 0 {
		res.Utilization = r.tr.BusyGPUSeconds() / provisioned
	}
	return res
}
