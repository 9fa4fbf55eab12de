package sim

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/par"
	"repro/internal/spec"
	"repro/internal/stats"
)

// Estimate is the simulator's prediction for one plan.
type Estimate struct {
	// JCT is the expected job completion time in seconds, and JCTStd its
	// sample standard deviation across Monte-Carlo draws.
	JCT, JCTStd float64
	// Cost is the expected total dollar cost (compute plus data ingress)
	// and CostStd its standard deviation.
	Cost, CostStd float64
}

// Simulator predicts JCT and cost for allocation plans over one job.
// Construct with New or Init; the zero value is not usable.
//
// A Simulator's configuration is immutable after construction and it is
// safe for concurrent use by multiple goroutines. The state it mutates is
// of two kinds, and neither can change a result:
//
//   - One mutex-guarded segment table memoizing pure computations: each
//     stage segment's shape and compiled TRAIN latency plus its lazily
//     filled sample vector (segment mode) and analytic moments, beside
//     them the profile's iteration distribution and mean per per-trial
//     share, which segment builds and StaticClusterJCTs read, and the
//     plan memo of whole-plan estimates keyed by canonical allocations.
//     A plan resolves against the table under one acquisition of its
//     lock (compile), which also snapshots each segment's filled sample
//     vector and moments, so a warm Monte-Carlo estimate takes the lock
//     three times (memo lookup, compile, memo store) and a warm analytic
//     evaluation once; only misses are filled outside it. The
//     provisioning latencies every segment shares are compiled once,
//     at construction. Every Monte-Carlo draw derives a private RNG
//     stream from the construction-time seed state, keyed by (stream
//     family, sample index), so Estimate and Breakdown are pure
//     functions of the configuration and the plan, independent of table
//     state, call order, goroutine or worker count.
//   - Storage the Simulator keeps for its whole life, and scratch
//     borrowed per call. The table's storage (its key index and plan
//     memo index, epoch-stamped open-addressing tables that reset in
//     O(1); the slabs its segment records, sample vectors and moments
//     are carved from; and the plan memo's columns; see table.go and
//     index.go) is allocated by the first Init and emptied by every
//     later Init and by Reset, so an owner that keeps a Simulator and
//     re-initialises it for each job fills its table without
//     allocating. Scratch comes from package-level pools (see
//     scratch.go), because concurrent calls on one Simulator each need
//     their own: estPool (segment-mode Estimate's compiled plan, sample
//     rows, and the per-draw JCT, cost and billing-cohort columns
//     summarize reduces), fillPool (a sample fill's per-worker RNG and
//     per-slot finish buffer) and evalPool (analytic-mode Estimate's
//     evaluators).
//     Neither can carry a result from one use into another: Init
//     empties the table, and every use of scratch fully overwrites what
//     it reads before reading it.
//
// A warm Estimate therefore allocates nothing, and a search on a
// re-initialised Simulator allocates only the plans it keeps.
type Simulator struct {
	spec    *spec.ExperimentSpec
	profile TrainProfile
	cloud   CloudProfile
	samples int
	// workers bounds the Monte-Carlo fan-out; <= 0 selects GOMAXPROCS.
	workers int
	// estimator selects sampling or moment propagation (see
	// EstimatorMode).
	estimator EstimatorMode
	// root is a snapshot of the seeding generator's state at construction.
	// It is never advanced: streams are derived from it with
	// stats.RNG.Stream, which is pure, so concurrent derivation is safe.
	root stats.RNG
	// prov is the cloud profile's provisioning latencies, compiled once
	// by Init and shared by every segment of the table.
	prov provLats

	// mu guards tab and everything in it, including the lazily filled
	// fields of its segments. Misses are computed outside the lock and
	// stored first-write-wins: every value is a pure function of its key
	// and the configuration, so double computation under concurrent
	// misses is benign. The table, plan memo included, is unbounded; one
	// search touches at most a few thousand segments and plans. tab is
	// nil until the first Init.
	mu  sync.Mutex
	tab *segTable
}

// Option configures optional Simulator behavior in New.
type Option func(*Simulator)

// WithWorkers bounds the worker pool Estimate and Breakdown fan Monte-
// Carlo samples across. n <= 0 (the default) selects GOMAXPROCS; 1 forces
// fully serial sampling. The estimate is bit-identical at every worker
// count — the knob trades goroutine overhead against wall-clock time only.
func WithWorkers(n int) Option { return func(s *Simulator) { s.workers = n } }

// DefaultSamples is the Monte-Carlo sample count used when the caller does
// not override it. The paper keeps this small by default so that plans are
// generated quickly (§5).
const DefaultSamples = 20

// New returns a simulator for the given job: a new Simulator put through
// Init.
func New(s *spec.ExperimentSpec, profile TrainProfile, cp CloudProfile, samples int, rng *stats.RNG, opts ...Option) (*Simulator, error) {
	sm := new(Simulator)
	if err := sm.Init(s, profile, cp, samples, rng, opts...); err != nil {
		return nil, err
	}
	return sm, nil
}

// Init makes s a simulator for the given job in place, so an owner that
// builds Simulators repeatedly (a replan decision, a run's planning) can
// keep one and allocate none. samples <= 0 selects DefaultSamples. The
// rng seeds every Monte-Carlo stream the simulator will ever draw; its
// state is copied, so the caller may keep using (or discard) the
// generator afterwards without perturbing the simulator. The table s
// holds is emptied first, so an initialised Simulator answers exactly as
// a new one would; the first Init allocates it. Init must not overlap
// any other call on s; on error s is left reset (see Reset) and unusable
// until the next successful Init.
func (s *Simulator) Init(sp *spec.ExperimentSpec, profile TrainProfile, cp CloudProfile, samples int, rng *stats.RNG, opts ...Option) error {
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
	if err := cp.Validate(); err != nil {
		return err
	}
	if samples <= 0 {
		samples = DefaultSamples
	}
	if rng == nil {
		rng = stats.NewRNG(0)
	}
	*s = Simulator{
		tab:     s.tab,
		spec:    sp,
		profile: profile,
		cloud:   cp,
		samples: samples,
		root:    *rng,
		prov: provLats{
			scale: stats.CompileLat(cp.Overheads.QueueDelay),
			init:  stats.CompileLat(cp.Overheads.InitLatency),
		},
	}
	for _, o := range opts {
		o(s)
	}
	return nil
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
	*s = Simulator{tab: tab}
}

// Workers returns the resolved Monte-Carlo worker bound.
func (s *Simulator) Workers() int { return par.Workers(s.workers) }

// Samples returns the Monte-Carlo sample count; callers sizing safety
// margins around sampled means divide the spread by its square root.
func (s *Simulator) Samples() int { return s.samples }

// Spec returns the simulated job's specification.
func (s *Simulator) Spec() *spec.ExperimentSpec { return s.spec }

// Cloud returns the simulator's cloud profile.
func (s *Simulator) Cloud() CloudProfile { return s.cloud }

// Estimate predicts JCT and cost for the plan by drawing s.samples
// Monte-Carlo samples of each stage segment and
// replaying every sample against the billing model. Segment draws fan
// out across the simulator's worker pool (WithWorkers) into
// index-addressed slots and the recombination reduces in fixed index
// order, so the estimate is bit-identical at any worker count and across
// repeated or concurrent calls, in both estimator modes.
//
// The table memoizes each estimate under the plan's canonical
// allocations (canonAlloc per stage), which is all an estimate depends
// on in either mode: plans that differ only within a fair share's
// representative class share one entry, and a search that scores a
// candidate again reads it back without allocating. A plan that fails
// validation returns its error and is not memoized.
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
	s.mu.Lock()
	est, ok := s.tab.plan(h, key)
	s.mu.Unlock()
	if ok {
		return est, nil
	}
	est, err := s.estimate(p)
	if err != nil {
		return Estimate{}, err
	}
	s.mu.Lock()
	s.tab.storePlan(h, key, est)
	s.mu.Unlock()
	return est, nil
}

// estimate computes Estimate's answer without the plan memo.
//
//rbvet:pure
func (s *Simulator) estimate(p Plan) (Estimate, error) {
	if s.estimator == EstimatorAnalytic {
		e := s.NewAnalyticEval()
		est, ok, err := e.Estimate(p)
		e.Release()
		if err != nil {
			return Estimate{}, err
		}
		if ok {
			return est, nil
		}
		// Some latency lacks finite moments: fall back to segment-mode
		// Monte-Carlo below.
	}
	es := estPool.Get().(*estScratch)
	defer es.release()
	if err := s.compile(p, &es.cp); err != nil {
		return Estimate{}, err
	}
	return s.summarize(es), nil
}

// summarize fills es's compiled plan's missing sample vectors, prices
// each of its s.samples Monte-Carlo rows and reduces them to the estimate's means and standard
// deviations, summed in sorted order as stats.Summarize does.
func (s *Simulator) summarize(es *estScratch) Estimate {
	s.sampleVectors(&es.cp)
	es.jcts, es.costs = resize(es.jcts, s.samples), resize(es.costs, s.samples)
	for k := 0; k < s.samples; k++ {
		es.jcts[k], es.costs[k], es.stack = s.priceSchedule(&es.cp, k, es.stack)
	}
	jct, jctStd := stats.MeanStdInPlace(es.jcts)
	cost, costStd := stats.MeanStdInPlace(es.costs)
	return Estimate{JCT: jct, JCTStd: jctStd, Cost: cost, CostStd: costStd}
}

// instanceCharge bills one instance held from birth to death.
func (s *Simulator) instanceCharge(birth, death float64) float64 {
	lifetime := death - birth
	if lifetime < 0 {
		lifetime = 0
	}
	if lifetime < s.cloud.Pricing.MinChargeSeconds {
		lifetime = s.cloud.Pricing.MinChargeSeconds
	}
	return lifetime / 3600 * s.cloud.Instance.PricePerHour(s.cloud.Pricing.Market)
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
	minTrials := s.spec.Stage(0).Trials
	for i := 1; i < s.spec.NumStages(); i++ {
		minTrials = min(minTrials, s.spec.Stage(i).Trials)
	}
	shares := s.meanLats(max(n/minTrials, 1)) // every share 1..n/minTrials occurs
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

// meanLats returns the table's share column for per-trial shares 1..n
// (entry per-1), every entry's mean filled: the profile's mean iteration
// latency at that share, MeanIterLatency(per). The means are taken with
// IterMean outside the lock, so filling them boxes no distribution, and
// a filled mean never changes, so the returned column's means may be
// read without the lock.
func (s *Simulator) meanLats(n int) []iterShare {
	s.mu.Lock()
	t := s.tab
	for per := t.full + 1; per <= n; per++ {
		if t.share(per).hasMean {
			continue
		}
		s.mu.Unlock()
		mean := IterMean(s.profile, per)
		s.mu.Lock()
		if sh := t.share(per); !sh.hasMean {
			sh.mean, sh.hasMean = mean, true
		}
	}
	t.full = max(t.full, n)
	col := t.shares[:n]
	s.mu.Unlock()
	return col
}

// iterShare returns the table's entry for per GPUs per trial with its
// distribution filled. A miss asks the profile outside the lock and
// stores first-write-wins: the entry is a pure function of the profile.
// A mean meanLats filled is left as it is, since callers of meanLats read
// it without the lock.
func (s *Simulator) iterShare(per int) iterShare {
	s.mu.Lock()
	sh := *s.tab.share(per)
	s.mu.Unlock()
	if sh.dist != nil {
		return sh
	}
	d := s.profile.IterDist(per)
	mean := d.Mean()
	s.mu.Lock()
	e := s.tab.share(per)
	if e.dist == nil {
		e.dist = d
	}
	if !e.hasMean {
		e.mean, e.hasMean = mean, true
	}
	sh = *e
	s.mu.Unlock()
	return sh
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
