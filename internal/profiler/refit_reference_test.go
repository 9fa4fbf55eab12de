package profiler

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
)

// refitReference is Refit as it was before the fit grid and the
// observed set became sorted slices: map-backed, kept as the oracle
// TestRefitMatchesReference holds Refit to.
func refitReference(base sim.TrainProfile, maxGPUs int, obs []Observation) (sim.MeasuredTrainProfile, error) {
	if base == nil {
		return sim.MeasuredTrainProfile{}, fmt.Errorf("profiler: refit of nil profile")
	}
	if maxGPUs < 1 {
		return sim.MeasuredTrainProfile{}, fmt.Errorf("profiler: refit max GPUs %d", maxGPUs)
	}
	if len(obs) == 0 {
		return sim.MeasuredTrainProfile{}, fmt.Errorf("profiler: refit without observations")
	}

	observed := make(map[int]float64, len(obs))
	var ratioSum, weight float64
	for _, o := range obs {
		if o.GPUs < 1 || o.Count < 1 || o.Mean <= 0 {
			return sim.MeasuredTrainProfile{}, fmt.Errorf("profiler: invalid observation %+v", o)
		}
		if _, dup := observed[o.GPUs]; dup {
			return sim.MeasuredTrainProfile{}, fmt.Errorf("profiler: duplicate observation at %d GPUs", o.GPUs)
		}
		pred := base.IterDist(o.GPUs).Mean()
		if pred <= 0 {
			return sim.MeasuredTrainProfile{}, fmt.Errorf("profiler: base profile predicts %v at %d GPUs", pred, o.GPUs)
		}
		observed[o.GPUs] = o.Mean
		ratioSum += float64(o.Count) * (o.Mean / pred)
		weight += float64(o.Count)
	}
	ratio := ratioSum / weight

	// Fit grid: the profiler's powers-of-two ladder up to maxGPUs, plus
	// every observed allocation and the 1-GPU anchor.
	gridSet := map[int]bool{1: true}
	for g := 1; g <= maxGPUs; g *= 2 {
		gridSet[g] = true
	}
	for g := range observed {
		gridSet[g] = true
	}
	grid := make([]int, 0, len(gridSet))
	for g := range gridSet {
		grid = append(grid, g)
	}
	sort.Ints(grid)

	means := make([]float64, len(grid))
	for i, g := range grid {
		if m, ok := observed[g]; ok {
			means[i] = m
			continue
		}
		means[i] = base.IterDist(g).Mean() * ratio
	}
	baseMean := means[0]

	speedups := make([]float64, len(grid))
	for i := range grid {
		sp := baseMean / means[i]
		if i == 0 || sp < 1 {
			sp = 1
		}
		speedups[i] = sp
	}
	scaling, err := model.NewInterpolatedScaling(grid, speedups)
	if err != nil {
		return sim.MeasuredTrainProfile{}, fmt.Errorf("profiler: refitting scaling function: %w", err)
	}
	return sim.MeasuredTrainProfile{
		BaseMean: baseMean,
		BaseStd:  baseStd(base, ratio),
		Scaling:  scaling,
	}, nil
}

// driftProfile is a base profile whose 2-GPU prediction is non-positive
// when bad is set, so the reference's pred check is reachable.
type driftProfile struct {
	linearProfile
	bad bool
}

func (p driftProfile) IterDist(gpus int) stats.Dist {
	if p.bad && gpus == 2 {
		return stats.Deterministic{Value: 0}
	}
	return p.linearProfile.IterDist(gpus)
}

// TestRefitMatchesReference: on random observation lists — unsorted,
// with duplicates, invalid entries and allocations off the ladder —
// Refit returns exactly the reference's fit, bit for bit, or exactly
// its error.
func TestRefitMatchesReference(t *testing.T) {
	r := stats.NewRNG(uint64(1))
	for trial := 0; trial < 5000; trial++ {
		base := driftProfile{linearProfile{mean: 50 + 100*r.Float64(), sigma: float64(r.Intn(2)) * 5}, r.Intn(10) == 0}
		maxGPUs := r.Intn(70)
		obs := make([]Observation, r.Intn(7))
		for i := range obs {
			obs[i] = Observation{GPUs: 1 + r.Intn(40), Mean: 1 + 200*r.Float64(), Count: 1 + r.Intn(20)}
			switch r.Intn(40) {
			case 0:
				obs[i].GPUs = 0
			case 1:
				obs[i].Count = 0
			case 2:
				obs[i].Mean = -1
			}
		}
		got, gotErr := Refit(base, maxGPUs, obs)
		want, wantErr := refitReference(base, maxGPUs, obs)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("Refit(%d, %+v) error %v, reference %v", maxGPUs, obs, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Refit(%d, %+v) = %+v, reference %+v", maxGPUs, obs, got, want)
		}
	}
}

// baseStd is the reference's 1-GPU spread: the base profile's 1-GPU σ
// scaled by the drift ratio.
func baseStd(base sim.TrainProfile, ratio float64) float64 {
	if n, ok := base.IterDist(1).(stats.Normal); ok {
		return n.Sigma * ratio
	}
	return 0
}

// TestFitRefitMatchesRefit: one Fit refitted in turn on random
// observation lists — each larger or smaller than the one before, some
// invalid — holds exactly the profile a fresh Refit returns, bit for
// bit, or returns exactly its error and keeps the profile it held.
func TestFitRefitMatchesRefit(t *testing.T) {
	r := stats.NewRNG(uint64(2))
	var f Fit
	for trial := 0; trial < 5000; trial++ {
		base := driftProfile{linearProfile{mean: 50 + 100*r.Float64(), sigma: float64(r.Intn(2)) * 5}, r.Intn(10) == 0}
		maxGPUs := r.Intn(70)
		obs := make([]Observation, r.Intn(7))
		for i := range obs {
			obs[i] = Observation{GPUs: 1 + r.Intn(40), Mean: 1 + 200*r.Float64(), Count: 1 + r.Intn(20)}
			if r.Intn(40) == 0 {
				obs[i].Count = 0
			}
		}
		prev := f.Profile
		if prev.Scaling != nil {
			prev.Scaling = clonedScaling(t, prev.Scaling)
		}
		gotErr := f.Refit(base, BaseSigma(base), maxGPUs, obs)
		want, wantErr := Refit(base, maxGPUs, obs)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("Fit.Refit(%d, %+v) error %v, Refit %v", maxGPUs, obs, gotErr, wantErr)
		}
		if wantErr != nil {
			want = prev
		}
		if !reflect.DeepEqual(f.Profile, want) {
			t.Fatalf("Fit.Refit(%d, %+v) = %+v, want %+v", maxGPUs, obs, f.Profile, want)
		}
	}
}

// clonedScaling returns a copy of s that shares no storage with it.
func clonedScaling(t *testing.T, s *model.InterpolatedScaling) *model.InterpolatedScaling {
	t.Helper()
	c, err := model.NewInterpolatedScaling(s.Samples())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFitRefitAllocatesNothing: a warm Fit refits a profile whose mean
// latency sim.IterMean takes directly without allocating.
func TestFitRefitAllocatesNothing(t *testing.T) {
	sc, err := model.NewInterpolatedScaling([]int{1, 2, 4, 8}, []float64{1, 1.9, 3.5, 6})
	if err != nil {
		t.Fatal(err)
	}
	var base sim.TrainProfile = sim.MeasuredTrainProfile{BaseMean: 80, BaseStd: 4, Scaling: sc}
	obs := []Observation{{GPUs: 4, Mean: 30, Count: 6}, {GPUs: 2, Mean: 50, Count: 3}, {GPUs: 3, Mean: 41, Count: 2}}
	var f Fit
	sigma := BaseSigma(base)
	if allocs := testing.AllocsPerRun(20, func() {
		if err := f.Refit(base, sigma, 16, obs); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a warm Fit.Refit allocates %v times, want 0", allocs)
	}
}
