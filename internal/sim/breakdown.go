package sim

import "repro/internal/cloud"

// StageEstimate decomposes a plan prediction into per-stage terms: where
// the time goes and where the money goes. Useful for inspecting why the
// planner prefers one plan over another (rubberband plan -breakdown).
type StageEstimate struct {
	// Stage is the 0-based stage index.
	Stage int
	// Trials and GPUsPerTrial restate the stage's shape under the plan.
	Trials       int
	GPUsPerTrial int
	// Instances is the cluster size (machines) during the stage.
	Instances int
	// Duration is the stage's expected wall-clock span in seconds,
	// including any provisioning that gates its start.
	Duration float64
	// Cost is the stage's expected compute cost attribution in dollars
	// (per-instance: machines held for the span; per-function: training
	// GPU-time consumed). Data ingress and minimum-charge corrections
	// are job-level and excluded.
	Cost float64
}

// Breakdown predicts per-stage durations and compute-cost attribution for
// a plan on the estimator Estimate uses, so its rows decompose the
// estimate a search reports: each stage's expected duration and cost
// from its analytic moments, whose durations add up to Estimate's JCT;
// when a latency lacks finite moments, their averages over the
// Monte-Carlo fallback's s.samples draws per segment, where sample k
// condenses exactly the draws the fallback's k-th sample prices.
// Repeated calls return identical results.
func (s *Simulator) Breakdown(p Plan) ([]StageEstimate, error) {
	e := s.evaluator()
	ok, err := e.fill(p)
	if err != nil {
		return nil, err
	}
	if !ok {
		return s.breakdownMC(p)
	}
	out := s.stageRows(&e.cp, p)
	var prev int32
	for i := range e.cp.segs {
		sg, m := e.cp.seg(i), e.cp.mom(i)
		out[i].Duration = m.dur.Mean
		out[i].Cost = s.stageCost(sg, prev, m.dur.Mean, m.scaleFin.Mean, m.trainSec.Mean)
		prev = sg.instances
	}
	return out, nil
}

// breakdownMC is Breakdown's Monte-Carlo decomposition of p.
func (s *Simulator) breakdownMC(p Plan) ([]StageEstimate, error) {
	cp := &s.scr.eval.cp
	if err := s.compile(p, cp); err != nil {
		return nil, err
	}
	s.sampleVectors(cp)
	return s.breakdown(cp, p), nil
}

// breakdown averages per-stage durations and compute-cost attribution
// over the s.samples Monte-Carlo rows of a compiled plan with its sample
// vectors filled (cp.row(i, k) is stage i's draw k).
func (s *Simulator) breakdown(cp *compiledPlan, p Plan) []StageEstimate {
	out := s.stageRows(cp, p)
	for k := 0; k < s.samples; k++ {
		var prev int32
		for i := range cp.segs {
			sg, row := cp.seg(i), cp.row(i, k)
			out[i].Duration += row.dur
			out[i].Cost += s.stageCost(sg, prev, row.dur, row.scaleFin, row.trainSec)
			prev = sg.instances
		}
	}
	for i := range out {
		out[i].Duration /= float64(s.samples)
		out[i].Cost /= float64(s.samples)
	}
	return out
}

// stageRows returns cp's rows with each stage's shape filled and its
// duration and cost zero.
func (s *Simulator) stageRows(cp *compiledPlan, p Plan) []StageEstimate {
	out := make([]StageEstimate, len(cp.segs))
	for i := range cp.segs {
		st := s.spec.Stage(i)
		out[i] = StageEstimate{
			Stage:        i,
			Trials:       st.Trials,
			GPUsPerTrial: GPUsPerTrial(p.Alloc[i], st.Trials),
			Instances:    int(cp.seg(i).instances),
		}
	}
	return out
}

// stageCost attributes compute cost to one stage of segment sg, entered
// with prev instances, that lasts dur with its SCALE request serviced at
// scaleFin and trainSec training GPU-slot seconds. It mirrors
// priceSchedule: under per-function billing the stage pays its training
// GPU-time; under per-instance billing machines carried over bill the
// whole span, and newly provisioned ones start billing when the SCALE
// request is serviced (queueing is unbilled).
func (s *Simulator) stageCost(sg *segment, prev int32, dur, scaleFin, trainSec float64) float64 {
	pr, it := s.cloud.Pricing, s.cloud.Instance
	if pr.Billing == cloud.PerFunction {
		return trainSec * float64(sg.trainGPUs) * it.PricePerGPUSecond(pr.Market)
	}
	cur := sg.instances
	kept := min(prev, cur)
	billed := float64(kept) * dur
	if cur > kept {
		billed += float64(cur-kept) * (dur - scaleFin)
	}
	return billed / 3600 * it.PricePerHour(pr.Market)
}
