package sim

import (
	"repro/internal/cloud"
	"repro/internal/stats"
)

// This file is the analytic (moment-propagation) estimator behind
// Estimate: the same segment decomposition and billing replay as the
// Monte-Carlo fallback, but carrying (mean, variance) pairs instead of
// sample vectors. A warm evaluation touches no RNG, draws no samples, and
// allocates nothing, so every candidate of a plan search costs
// microseconds.

// segMoment is the analytic counterpart of a segment's sample vector:
// the moments of its zero-based duration, its SCALE finish (zero when
// the cluster does not grow into the stage), and its total training
// GPU-slot seconds. ok=false marks a segment whose latencies lack finite
// moments; such plans fall back to Monte-Carlo.
type segMoment struct {
	dur, scaleFin, trainSec stats.Moment
	ok                      bool
}

// segmentMoments returns the ref of the analytic moments of the segment
// h refers to, filling them on first use. The value is a pure function
// of the segment (itself a pure function of the simulator configuration
// and the key). A miss stores the moments in a record carved from the
// table's moment slab.
//
//rbvet:pure
func (s *Simulator) segmentMoments(h ref) ref {
	sg := s.tab.segs.at(h)
	if sg.mom == 0 {
		var run []segMoment
		run, sg.mom = s.tab.moms.take(1)
		run[0] = sg.moments(&s.prov)
	}
	return sg.mom
}

// moments propagates (mean, variance) pairs through the segment's stage
// in closed form: the analytic counterpart of eval. The propagation
// treats each finish as a shared barrier plus an independent remainder
// (see "Barrier decomposition" in DESIGN.md), so a join never
// double-counts the variance its inputs share, and it reproduces that
// general barrier pass over the stage's sub-DAG bit for bit. The opening
// TRAINs start from one barrier b0:
//
//   - no growth: time zero;
//   - one INIT feeding one slot: a plain chain SCALE → INIT → TRAIN,
//     summed into the TRAIN's own moment;
//   - one INIT feeding several slots: the INIT's finish;
//   - several INITs: the SCALE finish plus the iid max over the INITs.
//
// The SYNC join over the TRAINs is a single TRAIN's finish, the iid max
// of the gang when every trial has its own slot, and otherwise a max
// over the slot tails only: a slot's earlier TRAINs finish no later than
// its tail when every latency is non-negative, and without that proof
// the segment reports ok=false. Stochastic joins are moment-matched
// (stats.MaxIIDMoment for bit-equal siblings, stats.MaxIndep across
// distinct ones); deterministic stages propagate exactly. ok=false also
// marks a latency without finite moments. The additions of a zero
// moment repeat the general pass's arithmetic (time zero as a barrier,
// the SYNC's zero latency), which can turn −0 into +0.
//
//rbvet:pure
func (sg *segment) moments(prov *provLats) segMoment {
	grow, trials, opening := int(sg.grow), int(sg.trials), int(sg.opening)
	train, ok := sg.train.Moment()
	if !ok {
		return segMoment{}
	}
	nonneg := sg.train.NonNeg()
	var scale, init stats.Moment
	if grow > 0 {
		var oks, oki bool
		scale, oks = prov.scale.Moment()
		init, oki = prov.init.Moment()
		if !oks || !oki {
			return segMoment{}
		}
		nonneg = nonneg && prov.scale.NonNeg() && prov.init.NonNeg()
	}

	v := segMoment{ok: true}
	// b0 is the opening TRAINs' start barrier and rel0 each opening
	// TRAIN's finish relative to it.
	var b0 stats.Moment
	rel0 := train
	switch {
	case grow == 0:
	case grow == 1 && opening == 1:
		rel0 = scale.AddIndep(init).AddIndep(train)
	case grow == 1:
		b0 = stats.Moment{}.AddIndep(scale.AddIndep(init))
	default:
		b0 = stats.Moment{}.AddIndep(scale).AddIndep(stats.MaxIIDMoment(init, grow))
	}
	if grow > 0 {
		v.scaleFin = stats.Moment{}.AddIndep(scale)
	}
	// Training GPU-time is the sum of the (independent) TRAIN latencies.
	for tr := 0; tr < trials; tr++ {
		v.trainSec = v.trainSec.AddIndep(train)
	}

	var join stats.Moment // the SYNC's start relative to b0
	switch {
	case trials == 1:
		v.dur = b0.AddIndep(rel0.AddIndep(stats.Moment{}))
		return v
	case opening == trials:
		join = stats.MaxIIDMoment(train, trials)
	default:
		if !nonneg {
			return segMoment{}
		}
		// Slots [0, deep) hold q+1 TRAINs, the rest q. Each slot tail's
		// finish, lifted above b0, is its slot's chain of barriers; the
		// shallow tails come first in TRAIN order. Bit-equal tails of
		// both depths form one iid group, as in the general pass.
		q, deep := trials/opening, trials%opening
		abs, rel := b0, rel0
		for k := 1; k < q; k++ {
			abs, rel = abs.AddIndep(rel), train
		}
		shallow := abs.SubIndepPrefix(b0).AddIndep(rel)
		join = stats.MaxIIDMoment(shallow, opening-deep)
		if deep > 0 {
			abs, rel = abs.AddIndep(rel), train
			tail := abs.SubIndepPrefix(b0).AddIndep(rel)
			if tail == shallow {
				join = stats.MaxIIDMoment(shallow, opening)
			} else {
				join = stats.MaxIndep(join, stats.MaxIIDMoment(tail, deep))
			}
		}
	}
	v.dur = b0.AddIndep(join).AddIndep(stats.Moment{})
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
// owns the compiled-plan buffer and the billing stack, so it is cheap to
// reuse; like its Simulator, it belongs to one goroutine at a time.
type AnalyticEval struct {
	sim    *Simulator
	cp     compiledPlan
	groups []birthGroup
}

// NewAnalyticEval returns a new analytic evaluator bound to s. Estimate
// evaluates on one the Simulator keeps; this one is for callers that want
// the analytic estimate on its own, without the plan memo or the
// Monte-Carlo fallback.
func (s *Simulator) NewAnalyticEval() *AnalyticEval { //rbvet:ignore unreached — the replan reference and the estimator tests score plans analytically, without the fallback, through it
	return &AnalyticEval{sim: s}
}

// Estimate analytically predicts JCT and cost for the plan: E[JCT] and
// E[cost] in Estimate.JCT/Cost, with JCTStd/CostStd the analytic
// standard deviations of the same distributions the Monte-Carlo modes
// sample. ok=false means some latency lacks finite moments and the
// caller should fall back to a sampling estimator; the error mirrors
// Simulator.Estimate's plan validation.
//
// The evaluation is exact under deterministic latencies and
// moment-matched otherwise (see segment.moments); CostStd
// additionally treats per-group instance charges as independent, which
// the validation tests bound. It is deterministic — no RNG is consulted
// — and a warm call (every segment and its moments in the table)
// allocates nothing.
func (e *AnalyticEval) Estimate(p Plan) (Estimate, bool, error) {
	if ok, err := e.fill(p); !ok || err != nil {
		return Estimate{}, false, err
	}
	jct, cost := e.price(&e.cp)
	return Estimate{
		JCT: jct.Mean, JCTStd: jct.Std(),
		Cost: cost.Mean, CostStd: cost.Std(),
	}, true, nil
}

// fill compiles p into the evaluator's plan and fills every segment's
// moments. ok=false means some latency lacks finite moments.
func (e *AnalyticEval) fill(p Plan) (ok bool, err error) {
	if err := e.sim.compile(p, &e.cp); err != nil {
		return false, err
	}
	for i, m := range e.cp.moms {
		if m == 0 {
			e.cp.moms[i] = e.sim.segmentMoments(e.cp.segs[i])
		}
		if !e.cp.mom(i).ok {
			return false, nil
		}
	}
	return true, nil
}

// price mirrors priceSchedule with moments: stage durations chain into
// the JCT by independent summation; per-instance billing replays LIFO
// lifetimes (a group's lifetime is the stage-prefix difference minus its
// own SCALE finish — an independent-prefix subtraction, since a stage's
// duration decomposes as its SCALE finish plus an independent remainder)
// with the minimum charge applied via the Gaussian clamp; per-function
// billing sums training GPU-seconds.
func (e *AnalyticEval) price(cp *compiledPlan) (jct, cost stats.Moment) {
	pr := e.sim.cloud.Pricing
	cost = stats.Moment{Mean: float64(cp.maxInstances) * pr.DataIngressCost(e.sim.cloud.DatasetGB)}

	if pr.Billing == cloud.PerFunction {
		pg := e.sim.cloud.Instance.PricePerGPUSecond(pr.Market)
		for i := range cp.segs {
			m := cp.mom(i)
			jct = jct.AddIndep(m.dur)
			cost = cost.AddIndep(m.trainSec.Scale(float64(cp.seg(i).trainGPUs) * pg))
		}
		return jct, cost
	}

	perHour := e.sim.cloud.Instance.PricePerHour(pr.Market)
	groups := e.groups[:0]
	alive := 0
	var pre stats.Moment // absolute start moment of the current stage
	for i := range cp.segs {
		sg, m := cp.seg(i), cp.mom(i)
		want := int(sg.instances)
		if want > alive {
			sf := stats.Moment{}
			if sg.grow > 0 {
				sf = m.scaleFin
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
		pre = pre.AddIndep(m.dur)
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
