package sim

import (
	"fmt"
	"math"

	"repro/internal/cloud"
	"repro/internal/spec"
	"repro/internal/stats"
)

// Estimate is the simulator's prediction for one plan.
type Estimate struct {
	// JCT is the expected job completion time in seconds, and JCTStd its
	// standard deviation.
	JCT, JCTStd float64
	// Cost is the expected total dollar cost (compute plus data ingress)
	// and CostStd its standard deviation.
	Cost, CostStd float64
}

// Simulator predicts JCT and cost for allocation plans over one job by
// propagating analytic moments through the plan's execution DAG. It
// draws no random numbers: an estimate is a pure function of the job,
// the profiles and the plan. Construct with New or Init; the zero value
// is not usable.
//
// A Simulator belongs to one goroutine at a time: no two calls on it may
// overlap. Separate Simulators share nothing, so goroutines that each
// own one run freely. Its configuration is immutable after
// construction, and the state it mutates is of two kinds, neither of
// which can change a result:
//
//   - One segment table memoizing pure computations: each stage
//     segment's shape and compiled TRAIN latency plus its lazily filled
//     analytic moments, beside them the profile's iteration
//     distribution and mean per per-trial share, which segment builds
//     and StaticClusterJCTs read, and the plan memo of whole-plan
//     estimates keyed by canonical allocations. The provisioning
//     latencies every segment shares are compiled once, at
//     construction. So Estimate and Breakdown are pure functions of the
//     configuration and the plan, independent of table state and call
//     order.
//   - Storage the Simulator keeps for its whole life. The table's
//     storage (its key index and plan memo index, epoch-stamped
//     open-addressing tables that reset in O(1); the slabs its segment
//     records and moments are carved from; and the plan memo's columns;
//     see table.go and index.go) and the scratch of its estimates (see
//     scratch.go) are allocated by the first Init and kept by every
//     later Init and by Reset, so an owner that keeps a Simulator and
//     re-initialises it for each job fills its table without
//     allocating. Init empties the table, and every use of scratch fully
//     overwrites what it reads before reading it.
//
// A warm Estimate therefore allocates nothing, and a search on a
// re-initialised Simulator allocates only the plans it keeps.
type Simulator struct {
	spec    *spec.ExperimentSpec
	profile TrainProfile
	cloud   cloud.Profile
	// prov is the cloud profile's provisioning latencies, compiled once
	// by Init and shared by every segment of the table.
	prov provLats

	// tab is the segment table. It is unbounded, plan memo included; one
	// search touches at most a few thousand segments and plans. tab is
	// nil until the first Init.
	tab *segTable
	// scr is the estimates' scratch, kept across Init and Reset.
	scr scratch
}

// Option configures optional Simulator behavior in New.
//
// Deprecated: no option configures anything; WithWorkers and
// WithEstimator are ignored.
type Option func(*Simulator)

// WithWorkers configures nothing.
//
// Deprecated: a Simulator estimates serially on its owner's goroutine;
// the worker bound is ignored.
func WithWorkers(int) Option { return func(*Simulator) {} }

// New returns a simulator for the given job: a new Simulator put through
// Init. Its samples, rng and opts parameters are deprecated and ignored
// (a Simulator draws no random numbers); they stay only while the
// benchmark module still passes them, and other callers pass 0, nil.
func New(s *spec.ExperimentSpec, profile TrainProfile, cp cloud.Profile, samples int, rng *stats.RNG, opts ...Option) (*Simulator, error) {
	sm := new(Simulator)
	if err := sm.Init(s, profile, cp); err != nil {
		return nil, err
	}
	return sm, nil
}

// Init makes s a simulator for the given job in place, so an owner that
// builds Simulators repeatedly (a replan decision, a run's planning) can
// keep one and allocate none. The table s holds is emptied first, so an
// initialised Simulator answers exactly as a new one would; the first
// Init allocates it. Init must not overlap any other call on s; on
// error s is left reset (see Reset) and unusable until the next
// successful Init.
//
// Init refuses a provisioning latency (the cloud profile's queue delay
// or init latency) that is nil, lacks finite moments (a Pareto with
// alpha <= 2), has a negative mean or may sample below zero: the
// analytic estimate and the static cost floor hold only for latencies
// with a finite variance that never run backwards. It also refuses a
// profile that fails cloud.Profile.Validate.
func (s *Simulator) Init(sp *spec.ExperimentSpec, profile TrainProfile, cp cloud.Profile) error {
	s.Reset()
	if s.tab == nil {
		s.tab = new(segTable)
	}
	if err := sp.Validate(); err != nil {
		return err
	}
	if profile == nil {
		return fmt.Errorf("sim: nil train profile")
	}
	var prov provLats
	var err error
	if prov.scale, err = provMoment("queue delay", cp.Overheads.QueueDelay); err != nil {
		return err
	}
	if prov.init, err = provMoment("init latency", cp.Overheads.InitLatency); err != nil {
		return err
	}
	if err := cp.Validate(); err != nil {
		return err
	}
	*s = Simulator{
		tab:     s.tab,
		scr:     s.scr,
		spec:    sp,
		profile: profile,
		cloud:   cp,
		prov:    prov,
	}
	s.scr.reserve(sp)
	return nil
}

// provMoment returns the moments of the provisioning latency d, or an
// error naming it unless it is non-nil and has moments, a non-negative
// mean and non-negative samples.
func provMoment(name string, d stats.Dist) (stats.Moment, error) {
	if d == nil {
		return stats.Moment{}, fmt.Errorf("sim: nil %s", name)
	}
	m, ok := stats.DistMoment(d)
	if !ok || !(m.Mean >= 0) || !stats.NonNeg(d) {
		return stats.Moment{}, fmt.Errorf("sim: %s %v: want finite moments, a non-negative mean and no negative samples", name, d)
	}
	return m, nil
}

// Reset empties s's table and drops everything Init gave it, leaving a
// Simulator that differs from the zero one only in the table's storage:
// an owner that keeps a Simulator between uses calls it so the
// Simulator pins no spec, profile or distribution. Reset must not
// overlap any other call on s.
func (s *Simulator) Reset() {
	tab := s.tab
	if tab != nil {
		tab.reset()
	}
	*s = Simulator{tab: tab, scr: s.scr}
}

// Spec returns the simulated job's specification.
func (s *Simulator) Spec() *spec.ExperimentSpec { return s.spec }

// Cloud returns the cloud the simulator prices plans against, as Init
// received it: the executor's restore latency and the provider's faults
// are fields of the same value.
func (s *Simulator) Cloud() cloud.Profile { return s.cloud }

// Estimate predicts JCT and cost for the plan by propagating analytic
// moments through its stage segments (see analytic.go). No RNG is
// consulted, so the estimate is bit-identical across repeated calls. A
// plan that fails validation returns its error, and so does a plan
// with a stage whose moments the analytic pass cannot propagate: a
// TRAIN latency without finite moments (Pareto alpha <= 2, an opaque
// distribution without a variance), or a stage running in several
// waves whose latencies are not provably non-negative.
//
// The table memoizes each estimate under the plan's canonical
// allocations (canonAlloc per stage), which is all an estimate depends
// on: plans that differ only within a fair share's representative class
// share one entry, and a search that scores a candidate again reads it
// back without allocating. An error is not memoized.
//
//rbvet:pure
func (s *Simulator) Estimate(p Plan) (Estimate, error) {
	if err := p.Validate(s.spec.NumStages()); err != nil {
		return Estimate{}, err
	}
	var buf [16]int32
	key := buf[:0]
	for i, a := range p.Alloc {
		key = append(key, int32(canonAlloc(a, s.spec.Stage(i).Trials)))
	}
	h := planHash(key)
	if est, ok := s.tab.plan(h, key); ok {
		return est, nil
	}
	est, err := s.estimate(p)
	if err != nil {
		return Estimate{}, err
	}
	s.tab.storePlan(h, key, est)
	return est, nil
}

// MeanIterLatency returns the profile's expected iteration latency at the
// given per-trial allocation — a convenience for planners sizing warm
// starts.
func (s *Simulator) MeanIterLatency(gpus int) float64 {
	return IterMean(s.profile, gpus)
}

// StaticClusterJCTs returns StaticClusterJCT(g) for every cluster size
// g = 1..n (entry g-1) as one column in buf's storage (grown when it is
// too short). It takes each per-trial share's mean latency from the
// segment table's share column (see meanLats) rather than boxing a
// distribution per (size, stage), and accumulates the column stage by
// stage. With the shares filled and buf large enough it allocates
// nothing.
func (s *Simulator) StaticClusterJCTs(n int, buf []float64) []float64 {
	shares := s.staticShares(n)
	mean := func(per int) float64 { return shares[per-1].mean }
	jcts := resize(buf, n)
	clear(jcts)
	for i := 0; i < s.spec.NumStages(); i++ {
		st := s.spec.Stage(i)
		for g := 1; g <= n; g++ {
			jcts[g-1] += staticStageJCT(st, g, mean)
		}
	}
	return jcts
}

// staticShares returns the share column, means filled, for every
// per-trial share a static plan of at most n GPUs gives a trial:
// 1..n/minTrials, where minTrials is the smallest stage's trial count.
func (s *Simulator) staticShares(n int) []iterShare {
	minTrials := s.spec.Stage(0).Trials
	for i := 1; i < s.spec.NumStages(); i++ {
		minTrials = min(minTrials, s.spec.Stage(i).Trials)
	}
	return s.meanLats(max(n/minTrials, 1))
}

// StaticCostFloor returns a lower bound on Estimate(Uniform(g,
// stages)).Cost, the cost of the static plan with g GPUs in every stage,
// and whether the bound holds. The bound is the data ingress of the
// peak instance count plus, per stage, the stage's instances (sized as
// buildSegment sizes them) billed for its closed-form JCT
// (staticStageJCT) under per-instance billing, or its training
// GPU-seconds under per-function billing, scaled by 1 − 1e-9 to absorb
// rounding.
//
// The analytic estimate only adds to these terms: an instance's
// lifetime spans the INIT and the joined TRAINs of every stage it
// lives through; Clark's and the sketch's maxima are no smaller than
// the largest mean they join, so a stage's join takes at least its
// waves of mean TRAINs; and the minimum charge's Gaussian clamp is no
// smaller than the lifetime it clamps. Init has already refused
// provisioning latencies without finite moments, a non-negative mean
// and non-negative samples, so the bound is refused (false) only for a
// profile not known to return normal or deterministic iteration
// latencies, or a negative iteration mean. It reads the share column
// StaticClusterJCTs fills, so after StaticClusterJCTs(n) it fills
// nothing for g <= n.
//
//rbvet:noalloc
func (s *Simulator) StaticCostFloor(g int) (float64, bool) {
	if g < 1 || !gaussianProfile(s.profile) {
		return 0, false
	}
	shares := s.staticShares(g)
	mean := func(per int) float64 { return shares[per-1].mean }
	inst, pr := s.cloud.Instance, s.cloud.Pricing
	perFunction := pr.Billing == cloud.PerFunction
	rate := inst.PricePerHour(pr.Market) / 3600
	if perFunction {
		rate = inst.PricePerGPUSecond(pr.Market)
	}
	var sum float64
	peak := 0
	for i := 0; i < s.spec.NumStages(); i++ {
		st := s.spec.Stage(i)
		per, need := stageShape(st.Trials, g, inst.GPUs)
		if !(mean(per) >= 0) {
			return 0, false
		}
		peak = max(peak, need)
		if perFunction {
			sum += float64(st.Trials*per) * float64(st.Iters) * mean(per) * rate
		} else {
			sum += float64(need) * staticStageJCT(st, g, mean) * rate
		}
	}
	return (float64(peak)*pr.DataIngressCost(s.cloud.DatasetGB) + sum) * (1 - 1e-9), true
}

// gaussianProfile reports whether p is a profile type known to return
// only normal or deterministic iteration latencies, whose TRAIN
// latencies always have finite moments.
func gaussianProfile(p TrainProfile) bool {
	switch p := p.(type) {
	case ModelTrainProfile, MeasuredTrainProfile, *MeasuredTrainProfile:
		return true
	case ScaledTrainProfile:
		return gaussianProfile(p.Base)
	}
	return false
}

// meanLats returns the table's share column for per-trial shares 1..n
// (entry per-1), every entry's mean filled: the profile's mean iteration
// latency at that share, MeanIterLatency(per). The means are taken with
// IterMean, so filling them boxes no distribution.
func (s *Simulator) meanLats(n int) []iterShare {
	t := s.tab
	for per := t.full + 1; per <= n; per++ {
		if sh := t.share(per); !sh.hasMean {
			sh.mean, sh.hasMean = IterMean(s.profile, per), true
		}
	}
	t.full = max(t.full, n)
	return t.shares[:n]
}

// iterShare returns the table's entry for per GPUs per trial with its
// distribution filled. A mean meanLats filled is left as it is: it is
// the distribution's mean either way.
func (s *Simulator) iterShare(per int) iterShare {
	e := s.tab.share(per)
	if e.dist == nil {
		e.dist = s.profile.IterDist(per)
		if !e.hasMean {
			e.mean, e.hasMean = e.dist.Mean(), true
		}
	}
	return *e
}

// StaticClusterJCT is a quick analytic lower-bound estimate of a static
// plan's JCT using mean latencies only (no straggler inflation); used for
// bracketing enumeration ranges, not for plan selection.
func (s *Simulator) StaticClusterJCT(gpus int) float64 {
	var total float64
	for i := 0; i < s.spec.NumStages(); i++ {
		total += staticStageJCT(s.spec.Stage(i), gpus, s.MeanIterLatency)
	}
	return total
}

// staticStageJCT is stage st's term of StaticClusterJCT on gpus GPUs,
// given the mean iteration latency at per GPUs per trial: a stage with at
// least one GPU per trial runs in one wave at gpus/trials GPUs each, a
// smaller cluster in ceil(trials/gpus) waves at one GPU each.
func staticStageJCT(st spec.Stage, gpus int, mean func(per int) float64) float64 {
	if gpus >= st.Trials {
		return float64(st.Iters) * mean(gpus/st.Trials)
	}
	waves := math.Ceil(float64(st.Trials) / float64(gpus))
	return waves * float64(st.Iters) * mean(1)
}
