package sim

import (
	"repro/internal/cloud"
	"repro/internal/stats"
)

// This file is the paper's estimator, Algorithm 1 (§4.2) — Monte-Carlo
// sampling of the execution DAG, each sampled schedule replayed against
// the billing model — run segment by segment: it samples the same stage
// segments Estimate propagates moments through, each on a stream of its
// own, and recombines the draws stage by stage. It is the oracle the
// analytic estimate is held to, and it is held in turn to Algorithm 1
// over the whole DAG (oracle_test.go). Estimate never reaches it: a
// Simulator draws no random numbers.

// segStreamDomain separates the segment-keyed RNG stream family from any
// other Hash64 users.
const segStreamDomain = 0x7365676d656e7431 // "segment1"

// segSample is the sufficient statistic one Monte-Carlo draw of one
// segment contributes to plan estimation: the segment's zero-based
// wall-clock span, the finish time of its SCALE request (0 when the
// cluster does not grow), and the total busy GPU-slot seconds across its
// TRAIN nodes. JCT recombination chains dur across stages; billing replay
// derives instance births from scaleFin and training GPU-time from
// trainSec.
type segSample struct {
	dur, scaleFin, trainSec float64
}

// eval draws one execution of the segment and condenses it to its
// segSample. It samples the stage's nodes in DAG order — SCALE, the
// INITs, then the TRAINs — and, exactly as a node-by-node pass over the
// sub-DAG would, starts each node at the largest of zero and its
// dependencies' finishes and takes the span as the largest finish. The
// INITs and the TRAINs are each drawn into lat in one batch (one opcode
// dispatch, the same stream consumption as a draw per node); each TRAIN's
// latency is then overwritten by its finish, so TRAIN tr starts at the
// finish of TRAIN tr−opening, the previous one in its slot. prov holds
// the Simulator's SCALE and INIT latencies. lat is scratch, reused when
// it holds max(grow, trials) and returned for the next draw.
//
//rbvet:pure
func (sg *segment) eval(prov *provLats, r *stats.RNG, lat []float64) (segSample, []float64) {
	if n := int(max(sg.grow, sg.trials)); cap(lat) < n {
		lat = make([]float64, n)
	}
	var out segSample
	var span, open float64 // largest finish so far; the opening TRAINs' start
	if sg.grow > 0 {
		var start float64 // the INITs' start, once the SCALE finishes
		out.scaleFin = start + prov.scale.Sample(r)
		if out.scaleFin > start {
			start = out.scaleFin
		}
		span = start
		inits := lat[:sg.grow]
		prov.init.SampleInto(r, inits)
		for _, d := range inits {
			if f := start + d; f > open {
				open = f
			}
		}
		if open > span {
			span = open
		}
	}
	fin := lat[:sg.trials]
	sg.train.SampleInto(r, fin)
	for tr := range fin {
		start := open
		if prev := tr - int(sg.opening); prev >= 0 {
			start = 0
			if f := fin[prev]; f > 0 {
				start = f
			}
		}
		f := start + fin[tr]
		fin[tr] = f
		out.trainSec += f - start
		if f > span {
			span = f
		}
	}
	// The SYNC barrier finishes at the latest TRAIN finish, already in
	// span.
	out.dur = span
	return out, lat
}

// monteCarlo is Algorithm 1 over one Simulator's segments: samples draws
// of each stage segment, draw k of a segment taken from the k-th stream
// of the segment's family under root, so every plan that executes a
// segment sees the same draws (common random numbers) and an estimate
// is a pure function of the Simulator, the sample count, the root stream
// and the plan. It keeps each segment's sample vector, drawn on first
// use, in a map of its own; the Simulator's table holds none. A
// monteCarlo serves one Init of its Simulator.
type monteCarlo struct {
	s       *Simulator
	samples int
	// root is a snapshot of the seeding generator's state. It is never
	// advanced: streams are derived from it with stats.RNG.StreamInto,
	// which is pure.
	root stats.RNG
	vecs map[segKey][]segSample

	// cp and rows are the plan the last compile resolved and its
	// stages' sample vectors; jcts, costs and stack are summarize's
	// columns and priceSchedule's billing stack; base, rng and lat are
	// a vector fill's root stream, current draw stream and latency
	// buffer.
	cp          compiledPlan
	rows        [][]segSample
	jcts, costs []float64
	stack       []cohort
	base, rng   stats.RNG
	lat         []float64
}

// newMonteCarlo returns Algorithm 1 over s's segments with samples draws
// per segment, its streams derived from root's state (copied: the
// caller may keep using root).
func newMonteCarlo(s *Simulator, samples int, root *stats.RNG) *monteCarlo {
	if samples < 1 {
		panic("sim: Monte-Carlo oracle needs a sample")
	}
	return &monteCarlo{s: s, samples: samples, root: *root, vecs: make(map[segKey][]segSample)}
}

// segStream returns the root generator of a segment tuple's stream
// family. Deriving streams from the tuple rather than the plan is what
// makes segment samples reusable across plans.
func (m *monteCarlo) segStream(key segKey) (r stats.RNG) {
	m.root.StreamInto(stats.Hash64(segStreamDomain, uint64(key.stage), uint64(key.alloc), uint64(key.prev)), &r)
	return r
}

// vector returns the samples-long sample vector of sg, drawing it on
// first use. Sample k always draws from the k-th stream of the tuple's
// family, so the vector does not depend on when it is drawn.
func (m *monteCarlo) vector(sg *segment) []segSample {
	if v, ok := m.vecs[sg.key]; ok {
		return v
	}
	v := make([]segSample, m.samples)
	m.base = m.segStream(sg.key)
	for k := range v {
		m.base.StreamInto(uint64(k), &m.rng)
		v[k], m.lat = sg.eval(&m.s.prov, &m.rng, m.lat)
	}
	m.vecs[sg.key] = v
	return v
}

// compile resolves p on the Simulator's table into m.cp and its stages'
// sample vectors into m.rows.
func (m *monteCarlo) compile(p Plan) error {
	if err := m.s.compile(p, &m.cp); err != nil {
		return err
	}
	m.rows = m.rows[:0]
	for i := range m.cp.segs {
		m.rows = append(m.rows, m.vector(m.cp.seg(i)))
	}
	return nil
}

// estimate is Algorithm 1's estimate of p: m.samples schedules, each
// recombined and priced row by row, reduced to means and standard
// deviations.
func (m *monteCarlo) estimate(p Plan) (Estimate, error) {
	if err := m.compile(p); err != nil {
		return Estimate{}, err
	}
	return m.summarize(&m.cp, m.rows), nil
}

// breakdownOf is Algorithm 1's per-stage decomposition of p.
func (m *monteCarlo) breakdownOf(p Plan) ([]StageEstimate, error) {
	if err := m.compile(p); err != nil {
		return nil, err
	}
	return m.breakdown(&m.cp, m.rows, p), nil
}

// summarize prices each of the m.samples Monte-Carlo rows of cp, whose
// stage i draw k is rows[i][k], and reduces them to the estimate's
// means and standard deviations, summed in sorted order as
// stats.Summarize does.
func (m *monteCarlo) summarize(cp *compiledPlan, rows [][]segSample) Estimate {
	m.jcts, m.costs = resize(m.jcts, m.samples), resize(m.costs, m.samples)
	for k := 0; k < m.samples; k++ {
		m.jcts[k], m.costs[k], m.stack = m.s.priceSchedule(cp, rows, k, m.stack)
	}
	jct, jctStd := stats.MeanStdInPlace(m.jcts)
	cost, costStd := stats.MeanStdInPlace(m.costs)
	return Estimate{JCT: jct, JCTStd: jctStd, Cost: cost, CostStd: costStd}
}

// breakdown averages per-stage durations and compute-cost attribution
// over the m.samples Monte-Carlo rows of cp.
func (m *monteCarlo) breakdown(cp *compiledPlan, rows [][]segSample, p Plan) []StageEstimate {
	s := m.s
	out := s.stageRows(cp, p)
	for k := 0; k < m.samples; k++ {
		var prev int32
		for i := range cp.segs {
			sg, row := cp.seg(i), rows[i][k]
			out[i].Duration += row.dur
			out[i].Cost += s.stageCost(sg, prev, row.dur, row.scaleFin, row.trainSec)
			prev = sg.instances
		}
	}
	for i := range out {
		out[i].Duration /= float64(m.samples)
		out[i].Cost /= float64(m.samples)
	}
	return out
}

// cohort is count instances born together at birth: one growth event on
// priceSchedule's LIFO billing stack.
type cohort struct {
	birth float64
	count int
}

// priceSchedule replays Monte-Carlo draw k of a compiled plan, whose
// stage i draw k is rows[i][k], against the billing model: stage
// durations chain into absolute time, per-instance billing replays LIFO
// instance lifetimes (births derived from each growth stage's SCALE
// finish, deaths at stage boundaries or job completion, subject to the
// minimum charge), and per-function billing sums training GPU-seconds.
// It returns the recombined JCT and total cost including data ingress.
// stack is a reusable scratch buffer, returned (emptied) for the next
// call.
//
// The per-instance replay keeps the alive instances as a LIFO stack of
// cohorts, price's birthGroup stack: the instances of one cohort die
// together, so their charges are equal and the replay computes each
// once. It still adds a charge once per instance, in the order a
// per-instance stack pops them (a shrink from the top, the survivors
// from the bottom), so the cost is bit-identical to billing every
// instance separately.
func (s *Simulator) priceSchedule(cp *compiledPlan, rows [][]segSample, k int, stack []cohort) (jct, cost float64, _ []cohort) {
	pr := s.cloud.Pricing
	cost = float64(cp.maxInstances) * pr.DataIngressCost(s.cloud.DatasetGB)

	if pr.Billing == cloud.PerFunction {
		pg := s.cloud.Instance.PricePerGPUSecond(pr.Market)
		for i := range cp.segs {
			sg, row := cp.seg(i), rows[i][k]
			jct += row.dur
			cost += row.trainSec * float64(sg.trainGPUs) * pg
		}
		return jct, cost, stack
	}

	alive := 0
	stack = stack[:0]
	stageStart := 0.0
	for i := range cp.segs {
		sg, row := cp.seg(i), rows[i][k]
		want := int(sg.instances)
		if want > alive {
			birth := stageStart
			if sg.grow > 0 {
				birth = stageStart + row.scaleFin // after queueing
			}
			stack = append(stack, cohort{birth: birth, count: want - alive})
			alive = want
		}
		for alive > want {
			top := &stack[len(stack)-1]
			n := min(top.count, alive-want)
			charge := s.instanceCharge(top.birth, stageStart)
			for j := 0; j < n; j++ {
				cost += charge
			}
			if top.count -= n; top.count == 0 {
				stack = stack[:len(stack)-1]
			}
			alive -= n
		}
		stageStart += row.dur
	}
	for _, c := range stack {
		charge := s.instanceCharge(c.birth, stageStart)
		for j := 0; j < c.count; j++ {
			cost += charge
		}
	}
	return stageStart, cost, stack[:0]
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
