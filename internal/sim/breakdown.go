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
// a plan. It is always the segment Monte-Carlo decomposition, under the
// analytic mode too: it averages the segment table's cached sample
// vectors, so under EstimatorSegment sample k condenses exactly the draws
// Estimate's k-th sample averaged over and the decomposition is
// consistent with the aggregate estimate. Repeated or concurrent calls
// return identical results.
func (s *Simulator) Breakdown(p Plan) ([]StageEstimate, error) {
	var cp compiledPlan
	if err := s.compile(p, &cp); err != nil {
		return nil, err
	}
	s.sampleVectors(&cp)
	return s.breakdown(&cp, p), nil
}

// breakdown averages per-stage durations and compute-cost attribution
// over the s.samples Monte-Carlo rows of a compiled plan with its sample
// vectors filled (cp.row(i, k) is stage i's draw k).
func (s *Simulator) breakdown(cp *compiledPlan, p Plan) []StageEstimate {
	n := len(cp.segs)
	durSum := make([]float64, n)
	costSum := make([]float64, n)
	pr := s.cloud.Pricing
	it := s.cloud.Instance

	for k := 0; k < s.samples; k++ {
		var prev int32
		for i := range cp.segs {
			sg, row := cp.seg(i), cp.row(i, k)
			durSum[i] += row.dur
			if pr.Billing == cloud.PerFunction {
				costSum[i] += row.trainSec * float64(sg.trainGPUs) * it.PricePerGPUSecond(pr.Market)
			} else {
				// Mirror priceSchedule: machines carried over bill the
				// whole span; newly provisioned ones start billing when
				// the stage's SCALE request is serviced (queueing is
				// unbilled).
				cur := sg.instances
				kept := prev
				if cur < kept {
					kept = cur
				}
				billed := float64(kept) * row.dur
				if cur > kept {
					billed += float64(cur-kept) * (row.dur - row.scaleFin)
				}
				costSum[i] += billed / 3600 * it.PricePerHour(pr.Market)
			}
			prev = sg.instances
		}
	}

	out := make([]StageEstimate, n)
	for i := range cp.segs {
		sg, st := cp.seg(i), s.spec.Stage(i)
		out[i] = StageEstimate{
			Stage:        i,
			Trials:       st.Trials,
			GPUsPerTrial: GPUsPerTrial(p.Alloc[i], st.Trials),
			Instances:    int(sg.instances),
			Duration:     durSum[i] / float64(s.samples),
			Cost:         costSum[i] / float64(s.samples),
		}
	}
	return out
}
