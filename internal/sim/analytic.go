package sim

import (
	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/stats"
)

// This file is the analytic (moment-propagation) estimator: the same
// segment decomposition and billing replay as the Monte-Carlo paths, but
// carrying (mean, variance) pairs instead of sample vectors. A warm
// evaluation touches no RNG, draws no samples, and allocates nothing —
// it is the sub-microsecond scoring pass the planner's batched frontier
// pruning is built on.

// segMoment is the analytic counterpart of a segment's sample vector:
// the moments of its zero-based duration, its SCALE finish (zero when
// the cluster does not grow into the stage), and its total training
// GPU-slot seconds. ok=false marks a segment whose latencies lack finite
// moments; such plans fall back to Monte-Carlo.
type segMoment struct {
	dur, scaleFin, trainSec stats.Moment
	ok                      bool
}

// segmentMoments returns the segment's analytic moments, filling sg.mom
// on first use. The value is a pure function of the segment (itself a
// pure function of the simulator configuration and the key), so benign
// double computation under concurrent misses is harmless. A miss runs
// its propagation pass on scratch from momentPool.
//
//rbvet:pure
func (s *Simulator) segmentMoments(sg *segment) *segMoment {
	s.mu.Lock()
	v := sg.mom
	s.mu.Unlock()
	if v != nil {
		return v
	}
	sc := momentPool.Get().(*dag.MomentScratch)
	defer momentPool.Put(sc)
	mk, okm := sg.prog.MomentsInto(sc)
	v = &segMoment{ok: okm}
	if okm {
		v.dur = mk
		if sg.scaleIdx >= 0 {
			v.scaleFin = sc.Finish(sg.scaleIdx)
		}
		// Training GPU-time is the sum of the (independent) train-node
		// latencies; moments add.
		for i := sg.trainLo; i < sg.trainHi; i++ {
			v.trainSec = v.trainSec.AddIndep(sc.Latency(i))
		}
	}
	s.mu.Lock()
	if sg.mom == nil {
		sg.mom = v
	}
	v = sg.mom
	s.mu.Unlock()
	return v
}

// birthGroup is one growth event on the analytic billing stack: count
// instances born at stage-prefix moment pre plus the stage's SCALE
// finish sf. Instances of one group share a single (random) lifetime, so
// their charges are perfectly correlated and sum by scaling.
type birthGroup struct {
	pre, sf stats.Moment
	count   int
}

// AnalyticEval evaluates plans analytically against one Simulator. It
// owns the compiled-plan buffer and the billing stack (moment misses
// draw their propagation scratch from momentPool), so it is cheap to
// reuse and must not be shared across goroutines concurrently; create
// one per search or worker (NewAnalyticEval).
type AnalyticEval struct {
	sim    *Simulator
	cp     compiledPlan
	groups []birthGroup
	moms   []*segMoment
}

// NewAnalyticEval returns a fresh analytic evaluator bound to s.
func (s *Simulator) NewAnalyticEval() *AnalyticEval {
	return &AnalyticEval{sim: s}
}

// release drops the evaluator's Simulator and segment references and
// returns it to evalPool.
func (e *AnalyticEval) release() {
	e.sim = nil
	clear(e.cp.segs)
	clear(e.moms)
	evalPool.Put(e)
}

// Estimate analytically predicts JCT and cost for the plan: E[JCT] and
// E[cost] in Estimate.JCT/Cost, with JCTStd/CostStd the analytic
// standard deviations of the same distributions the Monte-Carlo modes
// sample. ok=false means some latency lacks finite moments and the
// caller should fall back to a sampling estimator; the error mirrors
// Simulator.Estimate's plan validation.
//
// The evaluation is exact under deterministic latencies and
// moment-matched otherwise (see dag.Program.MomentsInto); CostStd
// additionally treats per-group instance charges as independent, which
// the validation tests bound. It is deterministic — no RNG is consulted
// — and a warm call (every segment and its moments in the table)
// allocates nothing.
func (e *AnalyticEval) Estimate(p Plan) (Estimate, bool, error) {
	if err := e.sim.compile(p, &e.cp); err != nil {
		return Estimate{}, false, err
	}
	e.moms = e.moms[:0]
	for _, sg := range e.cp.segs {
		m := e.sim.segmentMoments(sg)
		if !m.ok {
			return Estimate{}, false, nil
		}
		e.moms = append(e.moms, m)
	}
	jct, cost := e.price(&e.cp, e.moms)
	return Estimate{
		JCT: jct.Mean, JCTStd: jct.Std(),
		Cost: cost.Mean, CostStd: cost.Std(),
	}, true, nil
}

// price mirrors priceSchedule with moments: stage durations chain into
// the JCT by independent summation; per-instance billing replays LIFO
// lifetimes (a group's lifetime is the stage-prefix difference minus its
// own SCALE finish — an independent-prefix subtraction, since a stage's
// duration decomposes as its SCALE finish plus an independent remainder)
// with the minimum charge applied via the Gaussian clamp; per-function
// billing sums training GPU-seconds.
func (e *AnalyticEval) price(cp *compiledPlan, moms []*segMoment) (jct, cost stats.Moment) {
	pr := e.sim.cloud.Pricing
	cost = stats.Moment{Mean: float64(cp.maxInstances) * pr.DataIngressCost(e.sim.cloud.DatasetGB)}

	if pr.Billing == cloud.PerFunction {
		pg := e.sim.cloud.Instance.PricePerGPUSecond(pr.Market)
		for i, sg := range cp.segs {
			jct = jct.AddIndep(moms[i].dur)
			cost = cost.AddIndep(moms[i].trainSec.Scale(float64(sg.trainGPUs) * pg))
		}
		return jct, cost
	}

	perHour := e.sim.cloud.Instance.PricePerHour(pr.Market)
	groups := e.groups[:0]
	alive := 0
	var pre stats.Moment // absolute start moment of the current stage
	for i, sg := range cp.segs {
		want := sg.instances
		if want > alive {
			sf := stats.Moment{}
			if sg.scaleIdx >= 0 {
				sf = moms[i].scaleFin
			}
			groups = append(groups, birthGroup{pre: pre, sf: sf, count: want - alive})
			alive = want
		} else {
			for alive > want {
				top := &groups[len(groups)-1]
				n := top.count
				if alive-want < n {
					n = alive - want
				}
				cost = cost.AddIndep(e.charge(*top, pre, n, perHour))
				top.count -= n
				alive -= n
				if top.count == 0 {
					groups = groups[:len(groups)-1]
				}
			}
		}
		pre = pre.AddIndep(moms[i].dur)
	}
	for _, g := range groups {
		cost = cost.AddIndep(e.charge(g, pre, g.count, perHour))
	}
	e.groups = groups[:0]
	return pre, cost
}

// charge bills n instances of one birth group dying at the stage-prefix
// moment death: lifetime = (death − birth prefix) − SCALE finish, both
// independent-prefix subtractions, clamped below by the minimum charge.
// The n lifetimes are one shared random variable, so the group total
// scales linearly (mean ×n, std ×n).
func (e *AnalyticEval) charge(g birthGroup, death stats.Moment, n int, perHour float64) stats.Moment {
	life := death.SubIndepPrefix(g.pre).SubIndepPrefix(g.sf)
	billed := stats.ClampBelow(life, e.sim.cloud.Pricing.MinChargeSeconds)
	return billed.Scale(float64(n) / 3600 * perHour)
}
