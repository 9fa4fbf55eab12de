// Package replan closes the loop between the executor and the planner:
// an online replanning controller that watches execution drift away from
// the profiled prediction and recompiles the remainder of the allocation
// plan under the remainder of the deadline.
//
// The executor feeds observed per-iteration training latencies (and
// provisioning INIT/queue makespans) into a streaming drift detector — an
// exponentially weighted moving average of the observed-vs-predicted
// latency ratio, kept per allocation, with a configurable trigger
// threshold and a cooldown measured on the virtual clock. When the EWMA
// deviates past the threshold, or when the provider preempts capacity,
// the controller:
//
//  1. re-fits the profiled scaling function from the accumulated
//     observations (profiler.Fit),
//  2. re-invokes planner.PlanElastic for the remaining stages under the
//     remaining deadline via the (cheap, analytic) simulator, and
//  3. hands back a spliced plan — executed and executing stages keep
//     their allocations, only future stages are rewritten — which the
//     executor's placement controller transitions to at the next stage
//     boundary with minimal migration.
//
// Purity and determinism contract: every Decision is a pure function of
// (the observation sequence so far, the decision's ordinal, the virtual
// clock's now). The controller draws no wall-clock time and no
// randomness at all: its simulator estimates on analytic moments, so
// decisions are bit-identical across runs and replays.
//
// Storage contract: a Controller keeps everything its decisions use —
// the committed decisions and their plans, the re-fitted profile, the
// per-stage suffix specs, its Simulator and its Planner — and Reset
// keeps all of it for the next Init. So a decision on a recycled
// controller allocates only the planner's returned plan and the
// iteration distributions its Simulator's share column boxes; what a
// caller keeps (the trace note, the journal record) the caller copies,
// and Decisions returns a deep copy that outlives the controller's next
// run.
package replan

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/cloud"
	"repro/internal/planner"
	"repro/internal/profiler"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// Reason classifies what initiated a replan decision. Its value is the
// journal's code for it.
type Reason uint8

const (
	// ReasonDrift is a drift-detector trigger: the EWMA of the
	// observed-vs-predicted iteration-latency ratio left the threshold
	// band around 1.
	ReasonDrift Reason = 1
	// ReasonPreemption is a provider preemption event.
	ReasonPreemption Reason = 2
)

// String returns the reason's name, the text the trace note and the
// digest carry, or "reason(N)" for a value that names no reason.
func (r Reason) String() string {
	switch r {
	case ReasonDrift:
		return "drift"
	case ReasonPreemption:
		return "preemption"
	}
	return "reason(" + strconv.Itoa(int(r)) + ")"
}

// Config parameterizes a Controller. Spec, Profile, Cloud, Deadline and
// MaxGPUs mirror the planning-time configuration the original plan was
// compiled under.
type Config struct {
	// Spec is the full experiment structure being executed.
	Spec *spec.ExperimentSpec
	// Profile is the planning-time training profile (pre-drift
	// predictions; the denominator of every drift ratio).
	Profile sim.TrainProfile
	// Cloud is the cloud plans are priced against: the run's profile.
	Cloud cloud.Profile
	// Deadline is the job's absolute time constraint in virtual seconds.
	Deadline float64
	// MaxGPUs caps the replanned peak cluster size (same cap as the
	// original planning run).
	MaxGPUs int
	// Threshold is the relative EWMA deviation |ewma−1| that triggers a
	// replan. Zero selects 0.25.
	Threshold float64
	// CooldownSeconds is the minimum virtual time between replan
	// decisions. Zero selects 60.
	CooldownSeconds float64
}

const (
	// ewmaAlpha is the drift detector's EWMA smoothing factor.
	ewmaAlpha = 0.3
	// minObservations is the number of iteration observations required
	// before the detector may trigger.
	minObservations = 3
	// adoptDelta is the planner's minimum cost improvement in dollars,
	// also used as the stale-vs-new adoption margin.
	adoptDelta = 0.01
)

func (c Config) withDefaults() Config {
	if c.Threshold <= 0 {
		c.Threshold = 0.25
	}
	if c.CooldownSeconds <= 0 {
		c.CooldownSeconds = 60
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.Spec == nil:
		return fmt.Errorf("replan: nil spec")
	case c.Profile == nil:
		return fmt.Errorf("replan: nil profile")
	case c.Deadline <= 0 || math.IsInf(c.Deadline, 0) || math.IsNaN(c.Deadline):
		return fmt.Errorf("replan: deadline %v", c.Deadline)
	case c.MaxGPUs < 1:
		return fmt.Errorf("replan: max GPUs %d", c.MaxGPUs)
	case math.IsNaN(c.Threshold) || math.IsInf(c.Threshold, 0):
		return fmt.Errorf("replan: drift threshold %v", c.Threshold)
	case math.IsNaN(c.CooldownSeconds) || math.IsInf(c.CooldownSeconds, 0):
		return fmt.Errorf("replan: cooldown %v", c.CooldownSeconds)
	}
	return c.Cloud.Validate()
}

// allocStat is the detector state for one per-trial allocation.
type allocStat struct {
	gpus  int     // the per-trial allocation
	pred  float64 // the profile's mean iteration latency, fixed for the controller's life
	ewma  float64 // EWMA of observed/predicted latency ratio
	count int     // observations folded in
}

// State is the executor-side snapshot a replan decision is computed from.
type State struct {
	// Stage is the stage executing when the decision is made; only
	// stages after it are replanned.
	Stage int
	// Now is the virtual time of the decision.
	Now vclock.Time
	// RemainingIters is the predicted number of serialized iterations
	// left in the current stage (the straggler's remaining budget,
	// including queued trials waiting for slots).
	RemainingIters int
	// Plan is the live full plan (executed prefix + stale tail).
	Plan sim.Plan
}

// Decision is one replan outcome — the replayable record folded into the
// trace and the harness digest.
type Decision struct {
	// Seq is the decision's ordinal within the run (0-based).
	Seq int
	// At is the virtual decision time.
	At vclock.Time
	// Reason is what initiated the decision.
	Reason Reason
	// Stage is the stage that was executing; stages > Stage were
	// replanned.
	Stage int
	// Ratio is the observation-weighted global drift ratio at decision
	// time (1 when no iteration observation had arrived).
	Ratio float64
	// RemainingDeadline is the budget handed to the planner: the
	// absolute deadline minus now minus the predicted remainder of the
	// current stage. May be ≤ 0 when the deadline is already lost.
	RemainingDeadline float64
	// OldPlan is the full plan before the decision; NewPlan after it
	// (equal to OldPlan, and sharing its storage, unless Adopted). Both
	// are read-only: the journal, the trace note and the digest only read
	// them, and a caller that wants to edit one clones it first.
	OldPlan, NewPlan sim.Plan
	// StaleEstimate prices OldPlan's remaining tail under the re-fitted
	// profile (zero Estimate when the remaining deadline was already
	// negative and no simulation ran).
	StaleEstimate sim.Estimate
	// NewEstimate prices the adopted tail (valid only when Adopted).
	NewEstimate sim.Estimate
	// Adopted reports whether the spliced plan replaced the stale tail.
	Adopted bool
	// Infeasible reports that no tail within MaxGPUs — the stale one
	// included — meets the remaining deadline; the stale plan is kept
	// and the job is infeasible-after-drift.
	Infeasible bool
}

// Note renders the decision compactly for trace events: the text
// AppendNote appends.
func (d Decision) Note() string { return string(d.AppendNote(nil)) }

// AppendNote appends the decision's note to b, with floats as %.0f
// would render them, so the text is the same as the fmt format beside
// each case. The executor builds the note of each replan event in one
// reused buffer this way.
//
//rbvet:noalloc
func (d Decision) AppendNote(b []byte) []byte {
	b = append(append(b, d.Reason.String()...), ": "...)
	switch {
	case d.Infeasible: // "%s: infeasible under remaining deadline %.0fs, kept %v"
		b = appendSeconds(append(b, "infeasible under remaining deadline "...), d.RemainingDeadline)
		b = d.OldPlan.AppendString(append(b, ", kept "...))
	case d.Adopted: // "%s: adopted %v (stale %v), tail JCT %.0fs ≤ %.0fs"
		b = d.NewPlan.AppendString(append(b, "adopted "...))
		b = d.OldPlan.AppendString(append(b, " (stale "...))
		b = appendSeconds(append(b, "), tail JCT "...), d.NewEstimate.JCT)
		b = appendSeconds(append(b, " ≤ "...), d.RemainingDeadline)
	default: // "%s: kept %v"
		b = d.OldPlan.AppendString(append(b, "kept "...))
	}
	return b
}

// appendSeconds appends v rendered as fmt's %.0fs: no decimals, then "s".
func appendSeconds(b []byte, v float64) []byte {
	return append(strconv.AppendFloat(b, v, 'f', 0, 64), 's')
}

// Controller is the online replanning state machine. It is driven
// single-threaded from the executor's virtual-clock callbacks and must
// not be shared across clocks.
type Controller struct {
	cfg Config

	// stats holds per-allocation detector state in ascending allocation
	// order.
	stats []allocStat
	// totalObs counts iteration observations across allocations.
	totalObs int

	// overheadEWMA tracks observed/predicted provisioning makespans
	// (queue + init). It refines the re-fitted cloud profile but never
	// triggers by itself: provisioning realizes once per scale-up with
	// heavy-tailed draws, too few samples for a stable trigger.
	overheadEWMA  float64
	overheadCount int

	armed      bool // a replan happened; cooldown applies
	lastReplan vclock.Time
	// decisions are the committed decisions. Their plans are carved from
	// plans, which only grows during a run: a run it outgrows stays with
	// the decisions carved from it, so no decision's plan is ever
	// overwritten before Reset.
	decisions []Decision
	plans     []int

	// obs is observations' buffer and fit the storage every re-fit
	// writes the fitted profile into. sigma is the planning-time
	// profile's 1-GPU σ, taken at the first re-fit (hasSigma).
	obs      []profiler.Observation
	fit      profiler.Fit
	sigma    float64
	hasSigma bool
	// queueLat and initLat are the re-fitted provisioning latencies the
	// re-fitted cloud profile points to.
	queueLat, initLat stats.Scaled
	// suffixes[i] is the spec of stages i.., built by Init.
	suffixes []spec.ExperimentSpec
	// sm is the Simulator every decision runs on, allocated by the first
	// Init and kept by Reset, so it keeps its segment table and scratch
	// from one decision to the next; pl is the Planner of its search.
	sm *sim.Simulator
	pl planner.Planner

	// observer, when non-nil, receives every committed decision — the
	// write-ahead journaling hook.
	observer func(Decision)
}

// NewController validates the configuration and returns a fresh
// controller with no observations: a new Controller put through Init.
func NewController(cfg Config) (*Controller, error) {
	c := new(Controller)
	if err := c.Init(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// Init validates the configuration and makes c a fresh controller for
// it, with no observations, reusing the storage c kept from earlier
// runs. On error c is left reset.
func (c *Controller) Init(cfg Config) error {
	c.Reset()
	if c.sm == nil {
		c.sm = new(sim.Simulator)
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return err
	}
	c.cfg = cfg
	n := cfg.Spec.NumStages()
	c.suffixes = slices.Grow(c.suffixes[:0], n)[:n]
	for i := 1; i < n; i++ {
		cfg.Spec.SuffixInto(i, &c.suffixes[i])
	}
	return nil
}

// Reset returns c to the zero controller, ready for the next Init,
// keeping the capacity of every buffer: the detector's columns, the
// decisions and their plan storage, the re-fit's columns, the suffix
// specs and its Simulator, reset with its segment table kept. It
// drops the observer, every decision and every pointer into the
// finished run, so a Reset controller pins nothing of it. Reset must not
// overlap another call on c, and Decisions taken before it stay valid:
// they are copies.
func (c *Controller) Reset() {
	if c.sm != nil {
		c.sm.Reset()
	}
	clear(c.decisions)
	*c = Controller{
		stats:     c.stats[:0],
		decisions: c.decisions[:0],
		plans:     c.plans[:0],
		obs:       c.obs[:0],
		fit:       c.fit,
		suffixes:  c.suffixes[:0],
		sm:        c.sm,
	}
}

// Decisions returns the replan decisions taken so far, in order: one
// deep copy, its plans in one array it shares with nothing the
// controller keeps, an unadopted decision's NewPlan sharing its
// OldPlan's copy as the original shares its storage. nil when no
// decision was taken.
func (c *Controller) Decisions() []Decision {
	if len(c.decisions) == 0 {
		return nil
	}
	n := 0
	for _, d := range c.decisions {
		n += len(d.OldPlan.Alloc)
		if !sharesPlan(d) {
			n += len(d.NewPlan.Alloc)
		}
	}
	out := append([]Decision(nil), c.decisions...)
	back := make([]int, 0, n)
	for i := range out {
		d := &out[i]
		shared := sharesPlan(*d)
		d.OldPlan, back = copyPlan(back, d.OldPlan)
		if shared {
			d.NewPlan = d.OldPlan
		} else {
			d.NewPlan, back = copyPlan(back, d.NewPlan)
		}
	}
	return out
}

// sharesPlan reports whether d's NewPlan is its OldPlan, storage and
// all.
func sharesPlan(d Decision) bool {
	return len(d.NewPlan.Alloc) == len(d.OldPlan.Alloc) && len(d.OldPlan.Alloc) > 0 &&
		&d.NewPlan.Alloc[0] == &d.OldPlan.Alloc[0]
}

// copyPlan appends p's allocations to back and returns the copy and the
// extended array.
func copyPlan(back []int, p sim.Plan) (sim.Plan, []int) {
	lo := len(back)
	back = append(back, p.Alloc...)
	return sim.Plan{Alloc: back[lo:len(back):len(back)]}, back
}

// carve copies alloc into the controller's plan storage.
func (c *Controller) carve(alloc []int) sim.Plan {
	var p sim.Plan
	p, c.plans = copyPlan(c.plans, sim.Plan{Alloc: alloc})
	return p
}

// SetObserver registers fn to receive every subsequently committed
// decision, synchronously and in decision order. The journal writer
// subscribes here so replan decisions hit the write-ahead log with their
// full payload (trace events only carry the rendered note). The decision
// fn receives refers to the controller's storage: fn copies what it
// keeps.
func (c *Controller) SetObserver(fn func(Decision)) { c.observer = fn }

// AllocState is the drift detector's state for one per-trial allocation.
type AllocState struct {
	GPUs  int
	EWMA  float64
	Count int
}

// DetectorState is the controller's observable mutable state, captured
// by control-plane snapshots: per-allocation EWMAs in ascending GPU
// order, observation counters, the provisioning-overhead tracker, and
// the cooldown cursor. Two controllers that processed the same
// observation sequence report identical DetectorStates.
type DetectorState struct {
	Allocs        []AllocState
	TotalObs      int
	OverheadEWMA  float64
	OverheadCount int
	Armed         bool
	LastReplan    vclock.Time
	Decisions     int
}

// DetectorState snapshots the controller's mutable state.
func (c *Controller) DetectorState() DetectorState {
	ds := DetectorState{
		TotalObs:      c.totalObs,
		OverheadEWMA:  c.overheadEWMA,
		OverheadCount: c.overheadCount,
		Armed:         c.armed,
		LastReplan:    c.lastReplan,
		Decisions:     len(c.decisions),
	}
	for _, st := range c.stats {
		ds.Allocs = append(ds.Allocs, AllocState{GPUs: st.gpus, EWMA: st.ewma, Count: st.count})
	}
	return ds
}

// cooldownOver reports whether a new decision is permitted at now.
func (c *Controller) cooldownOver(now vclock.Time) bool {
	return !c.armed || float64(now-c.lastReplan) >= c.cfg.CooldownSeconds
}

// ObserveIteration folds one observed iteration latency at the given
// per-trial allocation into the drift detector and reports whether the
// detector triggers: enough observations, EWMA deviation past the
// threshold, cooldown elapsed. The caller decides whether a trigger
// becomes a Replan (there is nothing to replan in the last stage).
func (c *Controller) ObserveIteration(gpus int, observed float64, now vclock.Time) bool {
	i, seen := slices.BinarySearchFunc(c.stats, gpus, func(st allocStat, g int) int { return cmp.Compare(st.gpus, g) })
	var pred float64
	if seen {
		pred = c.stats[i].pred
	} else {
		pred = sim.IterMean(c.cfg.Profile, gpus)
	}
	if pred <= 0 || observed < 0 {
		return false
	}
	ratio := observed / pred
	if seen {
		c.stats[i].ewma = ewmaAlpha*ratio + (1-ewmaAlpha)*c.stats[i].ewma
	} else {
		c.stats = slices.Insert(c.stats, i, allocStat{gpus: gpus, pred: pred, ewma: ratio})
	}
	st := &c.stats[i]
	st.count++
	c.totalObs++
	return c.totalObs >= minObservations &&
		math.Abs(st.ewma-1) >= c.cfg.Threshold &&
		c.cooldownOver(now)
}

// ObserveProvision folds one observed provisioning makespan (request to
// capacity-ready, i.e. queue delay + INIT latency) into the overhead
// tracker. Provisioning observations refine re-fits but never trigger a
// replan by themselves: they realize once per scale-up from heavy-tailed
// draws — too few samples for a stable trigger.
func (c *Controller) ObserveProvision(observed float64) {
	pred := c.cfg.Cloud.Overheads.QueueDelay.Mean() + c.cfg.Cloud.Overheads.InitLatency.Mean()
	if pred <= 0 || observed < 0 {
		return
	}
	ratio := observed / pred
	if c.overheadCount == 0 {
		c.overheadEWMA = ratio
	} else {
		c.overheadEWMA = ewmaAlpha*ratio + (1-ewmaAlpha)*c.overheadEWMA
	}
	c.overheadCount++
}

// PreemptionTrigger reports whether a preemption at now should initiate a
// replan (cooldown elapsed).
func (c *Controller) PreemptionTrigger(now vclock.Time) bool {
	return c.cooldownOver(now)
}

// ratio returns the observation-weighted global drift ratio.
func (c *Controller) ratio() float64 {
	if c.totalObs == 0 {
		return 1
	}
	var sum, weight float64
	for _, st := range c.stats {
		sum += float64(st.count) * st.ewma
		weight += float64(st.count)
	}
	return sum / weight
}

// observations snapshots the detector state as profiler observations, in
// ascending allocation order. The per-allocation mean handed to the
// re-fit is the EWMA ratio × the profiled mean, so the fit reflects the
// current latency regime rather than the whole history.
//
//rbvet:noalloc
func (c *Controller) observations() []profiler.Observation {
	out := c.obs[:0]
	for _, st := range c.stats {
		out = append(out, profiler.Observation{
			GPUs:  st.gpus,
			Mean:  st.ewma * st.pred,
			Count: st.count,
		})
	}
	c.obs = out
	return out
}

// refitProfiles re-fits the training profile and cloud overheads from the
// observations accumulated so far. With no iteration observations (a
// preemption before any iteration completed) the planning-time profile is
// reused unchanged. The re-fitted profiles point into the controller's
// storage: they are valid until the next re-fit.
func (c *Controller) refitProfiles() (sim.TrainProfile, cloud.Profile, error) {
	prof := c.cfg.Profile
	if c.totalObs > 0 {
		if !c.hasSigma {
			c.sigma, c.hasSigma = profiler.BaseSigma(c.cfg.Profile), true
		}
		if err := c.fit.Refit(c.cfg.Profile, c.sigma, c.cfg.MaxGPUs, c.observations()); err != nil {
			return nil, cloud.Profile{}, err
		}
		prof = &c.fit.Profile
	}
	cp := c.cfg.Cloud
	if c.overheadCount > 0 && c.overheadEWMA > 0 && c.overheadEWMA != 1 {
		c.queueLat = stats.Scaled{D: cp.Overheads.QueueDelay, Factor: c.overheadEWMA}
		c.initLat = stats.Scaled{D: cp.Overheads.InitLatency, Factor: c.overheadEWMA}
		cp.Overheads.QueueDelay, cp.Overheads.InitLatency = &c.queueLat, &c.initLat
	}
	return prof, cp, nil
}

// suffix returns the spec of stages from.. of the controller's job.
//
//rbvet:noalloc
func (c *Controller) suffix(from int) *spec.ExperimentSpec { return &c.suffixes[from] }

// Replan computes and commits one replan decision for the given executor
// state: re-fit from observations, re-plan the remaining stages under the
// remaining deadline, splice. The stale tail is kept unless it misses the
// remaining deadline or the replanned tail is cheaper by at least
// adoptDelta — so a spurious trigger under zero drift is a no-op on the
// executed plan. The caller must guarantee state.Stage is not the last
// stage.
//
// Replan reads state.Plan and keeps only a copy of it, so the caller may
// pass its live plan. The decision's plans are read-only and live in the
// controller's storage until Reset: NewPlan shares OldPlan's storage
// unless the decision adopted a new tail, and a caller that keeps either
// past Reset copies it (Decisions does).
//
// A decision is three steps: re-fit, Estimate the stale tail, and one
// PlanElastic search for a new one. One Simulator, under the re-fitted
// profiles and seeded from the decision's stream, serves the estimate
// and the search, so the adoption test compares like with like.
func (c *Controller) Replan(state State, reason Reason) (Decision, error) {
	if state.Stage < 0 || state.Stage >= c.cfg.Spec.NumStages()-1 {
		return Decision{}, fmt.Errorf("replan: stage %d of %d has no tail to replan", state.Stage, c.cfg.Spec.NumStages())
	}
	if err := state.Plan.Validate(c.cfg.Spec.NumStages()); err != nil {
		return Decision{}, err
	}

	seq := len(c.decisions)
	old := c.carve(state.Plan.Alloc)
	d := Decision{
		Seq:     seq,
		At:      state.Now,
		Reason:  reason,
		Stage:   state.Stage,
		Ratio:   c.ratio(),
		OldPlan: old,
		NewPlan: old,
	}

	prof, cp, err := c.refitProfiles()
	if err != nil {
		return Decision{}, err
	}

	// Predict the remainder of the executing stage under the re-fitted
	// profile; the tail's budget is what's left of the deadline after it.
	d.RemainingDeadline = c.remainingDeadline(state, prof)
	if d.RemainingDeadline <= 0 {
		// The deadline is already lost before the tail even starts; no
		// plan can fix that.
		d.Infeasible = true
		c.commit(d, state.Now)
		return d, nil
	}

	suffix := c.suffix(state.Stage + 1)
	staleTail := sim.Plan{Alloc: old.Alloc[state.Stage+1:]}

	sm := c.sm
	if err := sm.Init(suffix, prof, cp); err != nil {
		return Decision{}, err
	}

	staleEst, err := sm.Estimate(staleTail)
	if err != nil {
		return Decision{}, err
	}
	d.StaleEstimate = staleEst
	staleFeasible := staleEst.JCT <= d.RemainingDeadline

	c.pl = planner.Planner{Sim: sm, Deadline: d.RemainingDeadline, MaxGPUs: c.cfg.MaxGPUs, Delta: adoptDelta}
	res, perr := c.pl.PlanElastic()
	switch {
	case perr == planner.ErrInfeasible:
		// No planner tail fits; the job is infeasible-after-drift unless
		// the stale tail itself still makes the deadline.
		d.Infeasible = !staleFeasible
	case perr != nil:
		return Decision{}, perr
	default:
		if !staleFeasible || res.Estimate.Cost < staleEst.Cost-adoptDelta {
			d.Adopted = true
			d.NewEstimate = res.Estimate
			d.NewPlan = c.carve(old.Alloc)
			copy(d.NewPlan.Alloc[state.Stage+1:], res.Plan.Alloc)
		}
	}
	c.commit(d, state.Now)
	return d, nil
}

// remainingDeadline is the tail's budget at state: the deadline minus now
// minus the executing stage's predicted remainder under prof.
func (c *Controller) remainingDeadline(state State, prof sim.TrainProfile) float64 {
	st := c.cfg.Spec.Stage(state.Stage)
	per := sim.GPUsPerTrial(state.Plan.Alloc[state.Stage], st.Trials)
	return c.cfg.Deadline - float64(state.Now) - float64(state.RemainingIters)*sim.IterMean(prof, per)
}

// commit records the decision and arms the cooldown.
//
//rbvet:noalloc
func (c *Controller) commit(d Decision, now vclock.Time) {
	c.decisions = append(c.decisions, d)
	c.armed = true
	c.lastReplan = now
	if c.observer != nil {
		c.observer(d)
	}
}
