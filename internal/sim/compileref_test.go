package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cloud"
	"repro/internal/stats"
)

// refCompiled is the compiled plan as it was before handles: per-stage
// segment and moment pointers, and the Monte-Carlo oracle's sample
// vectors.
type refCompiled struct {
	segs         []*segment
	vecs         [][]segSample
	moms         []*segMoment
	maxInstances int32
}

// view resolves a compiled plan's refs to the pointers the pointer-based
// compiled plan held, nil for unfilled moments, beside the oracle's
// sample vectors rows.
func (cp *compiledPlan) view(rows [][]segSample) *refCompiled {
	v := &refCompiled{maxInstances: cp.maxInstances, vecs: rows}
	for i := range cp.segs {
		v.segs = append(v.segs, cp.seg(i))
		var m *segMoment
		if cp.moms[i] != 0 {
			m = cp.mom(i)
		}
		v.moms = append(v.moms, m)
	}
	return v
}

// refCompile is the pointer-based compile: every stage's segment built
// afresh, outside any table, and its moments computed, both held by
// pointer, and, for a Monte-Carlo oracle mc, its sample vector drawn
// serially from the tuple's stream family under mc's root.
func (s *Simulator) refCompile(p Plan, mc *monteCarlo) (*refCompiled, error) {
	if err := p.Validate(s.spec.NumStages()); err != nil {
		return nil, err
	}
	cp := &refCompiled{}
	var prev int32
	for i, alloc := range p.Alloc {
		key := segKey{stage: int32(i), alloc: int32(canonAlloc(alloc, s.spec.Stage(i).Trials)), prev: prev}
		sg := s.buildSegment(key)
		if mc != nil {
			vec := make([]segSample, mc.samples)
			base := mc.segStream(key)
			d := s.segDists(&sg)
			var r stats.RNG
			var lat []float64
			for k := range vec {
				base.StreamInto(uint64(k), &r)
				vec[k], lat = sg.eval(&d, &r, lat)
			}
			cp.vecs = append(cp.vecs, vec)
		}
		m := sg.moments(&s.prov)
		cp.segs = append(cp.segs, &sg)
		cp.moms = append(cp.moms, &m)
		prev = sg.instances
		cp.maxInstances = max(cp.maxInstances, sg.instances)
	}
	return cp, nil
}

// refEstimate is an estimate over the pointer-based compile, without
// the plan memo or any table: for a nil mc, Estimate's, refPrice over
// the moments (an error when some moment does not exist); otherwise the
// oracle mc's, the Monte-Carlo replay through refPriceSchedule.
func (s *Simulator) refEstimate(p Plan, mc *monteCarlo) (Estimate, error) {
	cp, err := s.refCompile(p, mc)
	if err != nil {
		return Estimate{}, err
	}
	if mc == nil {
		for i, m := range cp.moms {
			if !m.ok {
				return Estimate{}, fmt.Errorf("stage %d has no moments", i)
			}
		}
		jct, cost := s.refPrice(cp)
		return Estimate{JCT: jct.Mean, JCTStd: jct.Std(), Cost: cost.Mean, CostStd: cost.Std()}, nil
	}
	jcts, costs := make([]float64, mc.samples), make([]float64, mc.samples)
	for k := range jcts {
		if s.cloud.Pricing.Billing == cloud.PerFunction {
			jcts[k], costs[k] = refPricePerFunction(s, cp, k)
		} else {
			jcts[k], costs[k] = refPriceSchedule(s, cp, k)
		}
	}
	jct, jctStd := stats.MeanStdInPlace(jcts)
	cost, costStd := stats.MeanStdInPlace(costs)
	return Estimate{JCT: jct, JCTStd: jctStd, Cost: cost, CostStd: costStd}, nil
}

// refPricePerFunction prices draw k under per-function billing: the
// stages' durations chain into the JCT, and each TRAIN's GPU-seconds
// bill at the per-GPU rate, plus data ingress.
func refPricePerFunction(s *Simulator, cp *refCompiled, k int) (jct, cost float64) {
	pr := s.cloud.Pricing
	cost = float64(cp.maxInstances) * pr.DataIngressCost(s.cloud.DatasetGB)
	pg := s.cloud.Instance.PricePerGPUSecond(pr.Market)
	for i, sg := range cp.segs {
		row := cp.vecs[i][k]
		jct += row.dur
		cost += row.trainSec * float64(sg.trainGPUs) * pg
	}
	return jct, cost
}

// refPrice is price over the pointer-based compile.
func (s *Simulator) refPrice(cp *refCompiled) (jct, cost stats.Moment) {
	pr := s.cloud.Pricing
	cost = stats.Moment{Mean: float64(cp.maxInstances) * pr.DataIngressCost(s.cloud.DatasetGB)}
	if pr.Billing == cloud.PerFunction {
		pg := s.cloud.Instance.PricePerGPUSecond(pr.Market)
		for i, sg := range cp.segs {
			jct = jct.AddIndep(cp.moms[i].dur)
			cost = cost.AddIndep(cp.moms[i].trainSec.Scale(float64(sg.trainGPUs) * pg))
		}
		return jct, cost
	}
	perHour := s.cloud.Instance.PricePerHour(pr.Market)
	var groups []birthGroup
	alive := 0
	var pre stats.Moment
	for i, sg := range cp.segs {
		want := int(sg.instances)
		if want > alive {
			sf := stats.Moment{}
			if sg.grow > 0 {
				sf = cp.moms[i].scaleFin
			}
			groups = append(groups, birthGroup{pre: pre, sf: sf, count: want - alive})
			alive = want
		} else {
			for alive > want {
				top := &groups[len(groups)-1]
				n := min(top.count, alive-want)
				cost = cost.AddIndep(s.charge(*top, pre, n, perHour))
				top.count -= n
				alive -= n
				if top.count == 0 {
					groups = groups[:len(groups)-1]
				}
			}
		}
		pre = pre.AddIndep(cp.moms[i].dur)
	}
	for _, g := range groups {
		cost = cost.AddIndep(s.charge(g, pre, g.count, perHour))
	}
	return pre, cost
}

// sameEstimate reports whether two estimates are bit-identical.
func sameEstimate(a, b Estimate) bool {
	return math.Float64bits(a.JCT) == math.Float64bits(b.JCT) &&
		math.Float64bits(a.JCTStd) == math.Float64bits(b.JCTStd) &&
		math.Float64bits(a.Cost) == math.Float64bits(b.Cost) &&
		math.Float64bits(a.CostStd) == math.Float64bits(b.CostStd)
}

// TestCompileMatchesPointerOracle holds the handle-based compile and
// everything that reads it — the analytic estimate and the plan memo,
// and the Monte-Carlo oracle's sample fills and replay — to the
// pointer-based compile: every estimate bit-identical, analytic and
// Monte-Carlo, under both billing models, cold and warm, on a new
// Simulator's table and after re-initialising it over that table, and
// the oracle's seed state untouched.
func TestCompileMatchesPointerOracle(t *testing.T) {
	for _, est := range estimators {
		for _, billing := range []cloud.BillingModel{cloud.PerInstance, cloud.PerFunction} {
			for _, c := range []struct {
				s             *Simulator
				samples, seed int
			}{{deterministicSim(t, billing), 8, 77}, {stochasticSim(t), 16, 41}} {
				s := c.s
				var mc *monteCarlo
				estimate := s.Estimate
				if est.mc {
					mc = newMonteCarlo(s, c.samples, stats.NewRNG(uint64(c.seed)))
					estimate = mc.estimate
				}
				for pass := 0; pass < 3; pass++ { // cold, memoized, then cold again on the kept table
					if pass == 2 {
						reinit(t, s)
					}
					for _, p := range testPlans(s) {
						got, err := estimate(p)
						if err != nil {
							t.Fatal(err)
						}
						want, err := s.refEstimate(p, mc)
						if err != nil {
							t.Fatal(err)
						}
						if !sameEstimate(got, want) {
							t.Fatalf("%s billing %v pass %d plan %v: estimate %+v, pointer oracle %+v",
								est.name, billing, pass, p, got, want)
						}
					}
				}
				if mc != nil && mc.root != *stats.NewRNG(uint64(c.seed)) {
					t.Fatal("estimating moved the oracle's seed state")
				}
			}
		}
	}
}

// FuzzCompileMatchesPointerOracle: random plans over a stochastic
// Simulator estimate bit-identically through the handle-based compile
// and the pointer-based one, analytically or by Monte-Carlo.
func FuzzCompileMatchesPointerOracle(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(9), uint8(2), false)
	f.Add(uint64(7), uint8(16), uint8(1), uint8(30), true)
	f.Fuzz(func(t *testing.T, seed uint64, a, b, c uint8, analytic bool) {
		sm := stochasticSim(t)
		var mc *monteCarlo
		estimate := sm.Estimate
		if !analytic {
			mc = newMonteCarlo(sm, 8, stats.NewRNG(seed))
			estimate = mc.estimate
		}
		n := sm.Spec().NumStages()
		alloc := make([]int, n)
		for i := range alloc {
			alloc[i] = 1 + int([3]uint8{a, b, c}[i%3]+uint8(i))%32
		}
		p := Plan{Alloc: alloc}
		got, err := estimate(p)
		if err != nil {
			t.Skip()
		}
		want, err := sm.refEstimate(p, mc)
		if err != nil {
			t.Fatal(err)
		}
		if !sameEstimate(got, want) {
			t.Fatalf("plan %v: estimate %+v, pointer oracle %+v", p, got, want)
		}
	})
}
