package sim

import (
	"math"
	"testing"

	"repro/internal/cloud"
	"repro/internal/spec"
	"repro/internal/stats"
)

// This file holds the Monte-Carlo oracle's cohort billing replay
// (priceSchedule) to the per-instance replay it replaced: one stack
// entry per alive instance, each instance charged on its own.

// refPriceSchedule is the per-instance LIFO billing replay: a growth
// pushes one birth time per new instance, a shrink pops and charges
// instances from the top one at a time, and the instances alive at the
// end are charged from the bottom of the stack up.
func refPriceSchedule(s *Simulator, cp *refCompiled, k int) (jct, cost float64) {
	pr := s.cloud.Pricing
	cost = float64(cp.maxInstances) * pr.DataIngressCost(s.cloud.DatasetGB)
	var alive []float64
	stageStart := 0.0
	for i, sg := range cp.segs {
		row := cp.vecs[i][k]
		want := int(sg.instances)
		if want > len(alive) {
			birth := stageStart
			if sg.grow > 0 {
				birth = stageStart + row.scaleFin
			}
			for len(alive) < want {
				alive = append(alive, birth)
			}
		} else {
			for len(alive) > want {
				b := alive[len(alive)-1]
				alive = alive[:len(alive)-1]
				cost += s.instanceCharge(b, stageStart)
			}
		}
		stageStart += row.dur
	}
	for _, b := range alive {
		cost += s.instanceCharge(b, stageStart)
	}
	return stageStart, cost
}

// billingMC returns the Monte-Carlo oracle, 9 draws per segment from
// seed's streams, over a per-instance-billed simulator of six short
// stages, with stochastic provisioning and a minimum charge of minCharge
// seconds. Stages last tens of seconds, so a 60 s minimum charge catches
// many lifetimes.
func billingMC(t testing.TB, seed uint64, minCharge float64) *monteCarlo {
	t.Helper()
	s, err := spec.New(
		spec.Stage{Trials: 12, Iters: 2}, spec.Stage{Trials: 8, Iters: 1}, spec.Stage{Trials: 6, Iters: 3},
		spec.Stage{Trials: 4, Iters: 2}, spec.Stage{Trials: 2, Iters: 1}, spec.Stage{Trials: 1, Iters: 4})
	if err != nil {
		t.Fatal(err)
	}
	cp := DefaultCloudProfile()
	cp.Pricing.Billing = cloud.PerInstance
	cp.Pricing.MinChargeSeconds = minCharge
	cp.DatasetGB = 3
	cp.Overheads = cloud.Overheads{
		QueueDelay:  stats.Exponential{MeanValue: 4},
		InitLatency: stats.Normal{Mu: 10, Sigma: 3},
	}
	sm, err := New(s, normalProfile{mu: 6, sigma: 2}, cp, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return newMonteCarlo(sm, 9, stats.NewRNG(seed))
}

// billingPattern summarizes what a plan's billing replay exercises:
// whether its cluster grows after shrinking, and how many of its
// sampled stage durations fall under the minimum charge.
type billingPattern struct {
	regrows bool
	short   int
}

// checkCohortBilling compares priceSchedule with refPriceSchedule on
// every sample of plan, bit for bit, and reports the billing pattern the
// plan exercised.
func checkCohortBilling(t testing.TB, mc *monteCarlo, plan Plan) billingPattern {
	t.Helper()
	sm := mc.s
	if err := mc.compile(plan); err != nil {
		t.Fatal(err)
	}
	cp := &mc.cp
	v := cp.view(mc.rows)
	var pat billingPattern
	shrunk := false
	for i := 1; i < len(v.segs); i++ {
		switch prev, cur := v.segs[i-1].instances, v.segs[i].instances; {
		case cur < prev:
			shrunk = true
		case cur > prev && shrunk:
			pat.regrows = true
		}
	}
	var stack []cohort
	for k := 0; k < mc.samples; k++ {
		var jct, cost float64
		jct, cost, stack = sm.priceSchedule(cp, mc.rows, k, stack)
		wantJCT, wantCost := refPriceSchedule(sm, v, k)
		if math.Float64bits(jct) != math.Float64bits(wantJCT) || math.Float64bits(cost) != math.Float64bits(wantCost) {
			t.Fatalf("plan %v draw %d: cohort replay (%v, %v), per-instance replay (%v, %v)", plan, k, jct, cost, wantJCT, wantCost)
		}
		// A stage's duration bounds the lifetime of an instance born in
		// it and dropped at its end.
		for i := range cp.segs {
			if v.vecs[i][k].dur < sm.cloud.Pricing.MinChargeSeconds {
				pat.short++
			}
		}
	}
	return pat
}

// TestCohortBillingMatchesPerInstance: on random plans whose clusters
// grow, shrink and grow again, under minimum charges that catch many
// lifetimes, the cohort replay prices every draw exactly as billing
// every instance separately does.
func TestCohortBillingMatchesPerInstance(t *testing.T) {
	r := stats.NewRNG(11)
	var regrows, short int
	for trial := 0; trial < 200; trial++ {
		mc := billingMC(t, uint64(trial), []float64{0, 60, 600}[trial%3])
		alloc := make([]int, mc.s.spec.NumStages())
		for i := range alloc {
			alloc[i] = 1 + r.Intn(40)
		}
		pat := checkCohortBilling(t, mc, Plan{Alloc: alloc})
		if pat.regrows {
			regrows++
		}
		short += pat.short
	}
	if regrows == 0 || short == 0 {
		t.Fatalf("%d plans regrow and %d stage draws fall under the minimum charge; the check must cover both", regrows, short)
	}
}

// FuzzCohortBilling fuzzes the cohort replay against the per-instance
// replay over six-stage allocations (one byte each), seeds and minimum
// charges.
func FuzzCohortBilling(f *testing.F) {
	f.Add(uint64(1), uint64(0x0820_0410_2001), uint16(60))
	f.Add(uint64(2), uint64(0x2802_1c02_2801), uint16(0))
	f.Add(uint64(3), uint64(0x0101_3001_0140), uint16(600))
	f.Fuzz(func(t *testing.T, seed, rawAlloc uint64, minCharge uint16) {
		mc := billingMC(t, seed, float64(minCharge))
		alloc := make([]int, mc.s.spec.NumStages())
		for i := range alloc {
			alloc[i] = 1 + int(rawAlloc>>(8*i)&0xff)%48
		}
		checkCohortBilling(t, mc, Plan{Alloc: alloc})
	})
}
