package planner

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/spec"
)

// fair reports whether allocation v divides evenly among trials: either a
// multiple (each trial gets v/trials GPUs) or a factor (trials queue in
// equal waves).
func fair(v, trials int) bool {
	return v%trials == 0 || trials%v == 0
}

// TestQuickFairFloor: fairFloor(max, trials) always succeeds for max >= 1
// (1 is fair for every trial count) and returns the LARGEST fair value not
// exceeding max.
func TestQuickFairFloor(t *testing.T) {
	f := func(maxRaw uint16, trialsRaw uint8) bool {
		max := int(maxRaw%512) + 1
		trials := int(trialsRaw%64) + 1
		v, ok := fairFloor(max, trials)
		if !ok {
			return false // must exist: v=1 is always fair
		}
		if v < 1 || v > max || !fair(v, trials) {
			return false
		}
		for w := v + 1; w <= max; w++ {
			if fair(w, trials) {
				return false // v was not maximal
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickFairStepDown: the step-down is strictly below the current
// allocation, fair, maximal, and never drops below 1 GPU; alloc = 1 has no
// step-down.
func TestQuickFairStepDown(t *testing.T) {
	if _, ok := fairStepDown(1, 5); ok {
		t.Error("fairStepDown(1, _) produced a value below 1 GPU")
	}
	f := func(allocRaw uint16, trialsRaw uint8) bool {
		alloc := int(allocRaw%511) + 2 // >= 2 so a step-down exists
		trials := int(trialsRaw%64) + 1
		v, ok := fairStepDown(alloc, trials)
		if !ok {
			return false
		}
		if v < 1 || v >= alloc || !fair(v, trials) {
			return false
		}
		for w := v + 1; w < alloc; w++ {
			if fair(w, trials) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// quickSpec builds a small SHA spec from fuzz bytes.
func quickSpec(t *testing.T, nRaw uint8) *spec.ExperimentSpec {
	t.Helper()
	n := int(nRaw%31) + 2
	s, err := spec.SHA(spec.SHAParams{N: n, R: 2, MaxR: 16, Eta: 2})
	if err != nil {
		t.Fatalf("spec.SHA(%d): %v", n, err)
	}
	return s
}

// TestQuickGenerateCandidatesInvariants: every candidate (a) keeps the
// plan's stage count, (b) changes exactly one stage, (c) strictly
// decreases that stage — so candidates can never exceed the search cap the
// current plan respects — (d) stays >= 1 GPU, and (e) lands on a fair
// allocation for the stage's trial count.
func TestQuickGenerateCandidatesInvariants(t *testing.T) {
	const maxGPUs = 64
	f := func(nRaw uint8, allocRaw [8]uint16, gpnRaw uint8) bool {
		sp := quickSpec(t, nRaw)
		gpn := int(gpnRaw % 9) // 0 disables the instance step
		cur := sim.Plan{Alloc: make([]int, sp.NumStages())}
		for i := range cur.Alloc {
			cur.Alloc[i] = int(allocRaw[i%len(allocRaw)]%maxGPUs) + 1
		}
		for _, cand := range generateCandidates(new(candSet), cur, sp, gpn) {
			if len(cand.Alloc) != len(cur.Alloc) {
				return false
			}
			changed := 0
			for i := range cand.Alloc {
				if cand.Alloc[i] == cur.Alloc[i] {
					continue
				}
				changed++
				v := cand.Alloc[i]
				if v >= cur.Alloc[i] || v < 1 || v > maxGPUs {
					return false
				}
				if !fair(v, sp.Stage(i).Trials) {
					return false
				}
			}
			if changed != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickGenerateCandidatesInstanceStep: whenever a stage occupies more
// than one instance and a fair allocation exists at or below the next
// instance boundary, some candidate releases at least one whole instance —
// the property that keeps the greedy search from stalling on sub-instance
// decrements under per-instance billing.
func TestQuickGenerateCandidatesInstanceStep(t *testing.T) {
	f := func(nRaw uint8, allocRaw [8]uint16, gpnRaw uint8) bool {
		sp := quickSpec(t, nRaw)
		gpn := int(gpnRaw%8) + 1
		cur := sim.Plan{Alloc: make([]int, sp.NumStages())}
		for i := range cur.Alloc {
			cur.Alloc[i] = int(allocRaw[i%len(allocRaw)]%64) + 1
		}
		cands := generateCandidates(new(candSet), cur, sp, gpn)
		for i := range cur.Alloc {
			curInstances := (cur.Alloc[i] + gpn - 1) / gpn
			if curInstances <= 1 {
				continue
			}
			target := (curInstances - 1) * gpn
			v, ok := fairFloor(target, sp.Stage(i).Trials)
			if !ok || v >= cur.Alloc[i] {
				continue
			}
			released := false
			for _, cand := range cands {
				ci := (cand.Alloc[i] + gpn - 1) / gpn
				if cand.Alloc[i] < cur.Alloc[i] && ci < curInstances {
					released = true
					break
				}
			}
			if !released {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickNaiveElasticNonIncreasing: the naive-elastic plan family keeps
// per-stage allocations proportional to the (non-increasing) SHA trial
// counts, so allocations must be non-increasing across stages — the shape
// invariant the spec requires of that policy.
func TestQuickNaiveElasticNonIncreasing(t *testing.T) {
	f := func(nRaw uint8, kRaw uint8) bool {
		sp := quickSpec(t, nRaw)
		k := int(kRaw%4) + 1
		prev := -1
		for i := 0; i < sp.NumStages(); i++ {
			alloc := sp.Stage(i).Trials * k
			if prev >= 0 && alloc > prev {
				return false
			}
			prev = alloc
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
