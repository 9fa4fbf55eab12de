package sim

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/stats"
)

// This file is the analytic (moment-propagation) estimator behind
// Estimate: the execution DAG's stage segments carry (mean, variance)
// pairs, which recombine across stages and replay against the billing
// model. A warm evaluation touches no RNG and allocates nothing, so
// every candidate of a plan search costs microseconds. Algorithm 1, the
// Monte-Carlo estimator over the same segments, is the oracle the tests
// hold it to.

// segMoment is a segment's analytic summary: the moments of its
// zero-based duration, its SCALE finish (zero when the cluster does not
// grow into the stage), and its total training GPU-slot seconds. ok=false
// marks a segment whose moments the pass cannot propagate (see
// segment.moments); Estimate refuses plans with such a segment.
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
// in closed form. The propagation
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
// marks a TRAIN latency without finite moments; prov's latencies have
// finite moments and never sample below zero, which Init checks. The
// additions of a zero
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
	var scale, init stats.Moment
	if grow > 0 {
		scale, _ = prov.scale.Moment()
		init, _ = prov.init.Moment()
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
		if !sg.train.NonNeg() {
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

// estimate computes Estimate's answer without the plan memo: p's
// segments' moments, recombined and priced. JCTStd and CostStd are the
// analytic standard deviations of the distributions the Monte-Carlo
// oracle samples. The evaluation is exact under deterministic latencies
// and moment-matched otherwise (see segment.moments); CostStd
// additionally treats per-group instance charges as independent, which
// the validation tests bound.
//
//rbvet:pure
func (s *Simulator) estimate(p Plan) (Estimate, error) {
	cp, err := s.fill(p)
	if err != nil {
		return Estimate{}, err
	}
	jct, cost := s.price(cp)
	return Estimate{
		JCT: jct.Mean, JCTStd: jct.Std(),
		Cost: cost.Mean, CostStd: cost.Std(),
	}, nil
}

// fill compiles p into the scratch's plan, fills every segment's
// moments and returns the plan, or an error naming the first stage
// whose moments do not exist.
func (s *Simulator) fill(p Plan) (*compiledPlan, error) {
	cp := &s.scr.cp
	if err := s.compile(p, cp); err != nil {
		return nil, err
	}
	for i, m := range cp.moms {
		if m == 0 {
			cp.moms[i] = s.segmentMoments(cp.segs[i])
		}
		if !cp.mom(i).ok {
			return nil, s.momentErr(i, cp.seg(i))
		}
	}
	return cp, nil
}

// momentErr explains why stage i's segment sg has no moments: its
// TRAIN latency has none, or the stage runs in waves and its TRAIN
// latency may be negative.
func (s *Simulator) momentErr(i int, sg *segment) error {
	d := s.iterShare(int(sg.trainGPUs)).dist
	if _, ok := sg.train.Moment(); !ok {
		return fmt.Errorf("sim: stage %d: TRAIN latency (iterations of %v) has no finite moments", i, d)
	}
	return fmt.Errorf("sim: stage %d: queued TRAINs (iterations of %v) may take negative time", i, d)
}

// price recombines a filled compiled plan's moments: stage durations
// chain into the JCT by independent summation; per-instance billing
// replays LIFO lifetimes (a group's lifetime is the stage-prefix
// difference minus its own SCALE finish — an independent-prefix
// subtraction, since a stage's duration decomposes as its SCALE finish
// plus an independent remainder) with the minimum charge applied via
// the Gaussian clamp; per-function billing sums training GPU-seconds.
// The billing stack is the scratch's.
func (s *Simulator) price(cp *compiledPlan) (jct, cost stats.Moment) {
	pr := s.cloud.Pricing
	cost = stats.Moment{Mean: float64(cp.maxInstances) * pr.DataIngressCost(s.cloud.DatasetGB)}

	if pr.Billing == cloud.PerFunction {
		pg := s.cloud.Instance.PricePerGPUSecond(pr.Market)
		for i := range cp.segs {
			m := cp.mom(i)
			jct = jct.AddIndep(m.dur)
			cost = cost.AddIndep(m.trainSec.Scale(float64(cp.seg(i).trainGPUs) * pg))
		}
		return jct, cost
	}

	perHour := s.cloud.Instance.PricePerHour(pr.Market)
	groups := s.scr.groups[:0]
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
				cost = cost.AddIndep(s.charge(*top, pre, n, perHour))
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
		cost = cost.AddIndep(s.charge(g, pre, g.count, perHour))
	}
	s.scr.groups = groups[:0]
	return pre, cost
}

// charge bills n instances of one birth group dying at the stage-prefix
// moment death: lifetime = (death − birth prefix) − SCALE finish, both
// independent-prefix subtractions, clamped below by the minimum charge.
// The n lifetimes are one shared random variable, so the group total
// scales linearly (mean ×n, std ×n).
func (s *Simulator) charge(g birthGroup, death stats.Moment, n int, perHour float64) stats.Moment {
	life := death.SubIndepPrefix(g.pre).SubIndepPrefix(g.sf)
	billed := stats.ClampBelow(life, s.cloud.Pricing.MinChargeSeconds)
	return billed.Scale(float64(n) / 3600 * perHour)
}
