package profiler

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Refit is Fit.Refit on a new Fit: the one-shot refit the tests use.
func Refit(base sim.TrainProfile, maxGPUs int, obs []Observation) (sim.MeasuredTrainProfile, error) {
	if base == nil {
		return sim.MeasuredTrainProfile{}, fmt.Errorf("profiler: refit of nil profile")
	}
	f := new(Fit)
	if err := f.Refit(base, BaseSigma(base), maxGPUs, obs); err != nil {
		return sim.MeasuredTrainProfile{}, err
	}
	return f.Profile, nil
}

// linearProfile predicts mean/gpus with optional 1-GPU noise.
type linearProfile struct {
	mean  float64
	sigma float64
}

func (p linearProfile) IterDist(gpus int) stats.Dist {
	m := p.mean / float64(gpus)
	if p.sigma == 0 {
		return stats.Deterministic{Value: m}
	}
	return stats.Normal{Mu: m, Sigma: p.sigma / float64(gpus)}
}

func TestRefitExactPassthrough(t *testing.T) {
	base := linearProfile{mean: 100}
	obs := []Observation{
		{GPUs: 1, Mean: 100, Count: 5},
		{GPUs: 4, Mean: 25, Count: 5},
	}
	fitted, err := Refit(base, 16, obs)
	if err != nil {
		t.Fatal(err)
	}
	// On-profile observations (ratio exactly 1) must reproduce the base
	// predictions exactly at every grid point.
	for _, g := range []int{1, 2, 4, 8, 16} {
		got := fitted.IterDist(g).Mean()
		want := base.IterDist(g).Mean()
		if got != want {
			t.Fatalf("refit mean at %d GPUs = %v, base predicts %v", g, got, want)
		}
	}
}

func TestRefitUniformSlowdown(t *testing.T) {
	base := linearProfile{mean: 100}
	obs := []Observation{
		{GPUs: 2, Mean: 100, Count: 3}, // base predicts 50: ratio 2
	}
	fitted, err := Refit(base, 8, obs)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []int{1, 2, 4, 8} {
		got := fitted.IterDist(g).Mean()
		want := 2 * base.IterDist(g).Mean()
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("refit mean at %d GPUs = %v, want 2x base = %v", g, got, want)
		}
	}
}

// TestRefitObservedOverridesPrior: a measured allocation keeps its exact
// measurement even when it disagrees with the global ratio.
func TestRefitObservedOverridesPrior(t *testing.T) {
	base := linearProfile{mean: 100}
	obs := []Observation{
		{GPUs: 1, Mean: 200, Count: 10}, // ratio 2
		{GPUs: 4, Mean: 80, Count: 10},  // ratio 3.2
	}
	fitted, err := Refit(base, 4, obs)
	if err != nil {
		t.Fatal(err)
	}
	if got := fitted.IterDist(1).Mean(); got != 200 {
		t.Fatalf("1-GPU mean %v, observed 200", got)
	}
	if got := fitted.IterDist(4).Mean(); math.Abs(got-80) > 1e-9 {
		t.Fatalf("4-GPU mean %v, observed 80", got)
	}
}

// TestRefitClampsSpeedup: more GPUs are never treated as a slowdown, even
// if an observation claims so (Profile's clamping policy).
func TestRefitClampsSpeedup(t *testing.T) {
	base := linearProfile{mean: 100}
	obs := []Observation{
		{GPUs: 1, Mean: 100, Count: 3},
		{GPUs: 2, Mean: 150, Count: 3}, // "slower" at 2 GPUs
	}
	fitted, err := Refit(base, 2, obs)
	if err != nil {
		t.Fatal(err)
	}
	if got := fitted.IterDist(2).Mean(); got > fitted.IterDist(1).Mean() {
		t.Fatalf("2-GPU mean %v exceeds 1-GPU mean %v after clamp", got, fitted.IterDist(1).Mean())
	}
}

func TestRefitCarriesNoise(t *testing.T) {
	base := linearProfile{mean: 100, sigma: 10}
	fitted, err := Refit(base, 4, []Observation{{GPUs: 1, Mean: 200, Count: 3}})
	if err != nil {
		t.Fatal(err)
	}
	n, ok := fitted.IterDist(1).(stats.Normal)
	if !ok {
		t.Fatalf("refit of noisy base produced %T, want Normal", fitted.IterDist(1))
	}
	if math.Abs(n.Sigma-20) > 1e-9 {
		t.Fatalf("refit sigma %v, want base sigma x ratio = 20", n.Sigma)
	}
}

func TestRefitErrors(t *testing.T) {
	base := linearProfile{mean: 100}
	cases := []struct {
		name    string
		profile sim.TrainProfile
		maxGPUs int
		obs     []Observation
	}{
		{"nil profile", nil, 4, []Observation{{GPUs: 1, Mean: 1, Count: 1}}},
		{"zero max gpus", base, 0, []Observation{{GPUs: 1, Mean: 1, Count: 1}}},
		{"no observations", base, 4, nil},
		{"zero gpus", base, 4, []Observation{{GPUs: 0, Mean: 1, Count: 1}}},
		{"zero count", base, 4, []Observation{{GPUs: 1, Mean: 1, Count: 0}}},
		{"zero mean", base, 4, []Observation{{GPUs: 1, Mean: 0, Count: 1}}},
		{"duplicate", base, 4, []Observation{{GPUs: 2, Mean: 1, Count: 1}, {GPUs: 2, Mean: 2, Count: 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Refit(tc.profile, tc.maxGPUs, tc.obs); err == nil {
				t.Fatalf("Refit accepted %s", tc.name)
			}
		})
	}
}

// TestRefitFeedsScalingModel closes the loop with the model package: the
// fitted scaling function is a valid InterpolatedScaling usable by the
// simulator (anchor at 1 GPU, non-decreasing grid).
func TestRefitFeedsScalingModel(t *testing.T) {
	base := linearProfile{mean: 64}
	fitted, err := Refit(base, 16, []Observation{
		{GPUs: 4, Mean: 24, Count: 8},
		{GPUs: 16, Mean: 8, Count: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	var _ *model.InterpolatedScaling = fitted.Scaling
	if sp := fitted.Scaling.Speedup(1); sp != 1 {
		t.Fatalf("speedup at 1 GPU is %v, want 1", sp)
	}
	if fitted.Scaling.Speedup(16) < fitted.Scaling.Speedup(4) {
		t.Fatal("speedup decreased with more GPUs")
	}
}
