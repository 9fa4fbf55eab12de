package model

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/searchspace"
	"repro/internal/stats"
)

func TestZooValidates(t *testing.T) {
	for _, m := range Zoo() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"resnet50", "resnet101", "resnet152", "bert"} {
		m, err := ByName(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if m.Name != name {
			t.Errorf("ByName(%q).Name = %q", name, m.Name)
		}
	}
	if _, err := ByName("vgg"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestValidateRejects(t *testing.T) {
	base := ResNet50()
	mutations := []func(*Model){
		func(m *Model) { m.Name = "" },
		func(m *Model) { m.BaseBatch = 0 },
		func(m *Model) { m.BaseIterSeconds = 0 },
		func(m *Model) { m.IterNoiseStd = -1 },
		func(m *Model) { m.Curve.AccCeil = m.Curve.AccFloor },
		func(m *Model) { m.Curve.Tau = 0 },
		func(m *Model) { m.Curve.LRWidth = 0 },
	}
	for i, mutate := range mutations {
		m := *base
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestIterLatencyBatchScaling(t *testing.T) {
	m := ResNet50()
	// Strong scaling: double the batch, double the single-GPU latency.
	l1 := m.IterLatencyMean(512, 1, 1)
	l2 := m.IterLatencyMean(1024, 1, 1)
	if math.Abs(l2-2*l1) > 1e-9 {
		t.Errorf("batch scaling: %v vs 2*%v", l2, l1)
	}
	if l1 != m.BaseIterSeconds {
		t.Errorf("base latency %v != %v", l1, m.BaseIterSeconds)
	}
}

func TestIterLatencyGPUScaling(t *testing.T) {
	m := ResNet50()
	l1 := m.IterLatencyMean(512, 1, 1)
	l4 := m.IterLatencyMean(512, 4, 1)
	if l4 >= l1 {
		t.Error("more GPUs did not reduce latency")
	}
	// Sub-linear: 4 GPUs less than 4x faster.
	if l4 <= l1/4 {
		t.Errorf("super-linear scaling: %v vs %v/4", l4, l1)
	}
	// Scattering across nodes is slower than co-located.
	if s := m.IterLatencyMean(512, 4, 4); s <= l4 {
		t.Errorf("scattered latency %v not worse than co-located %v", s, l4)
	}
}

func TestIterLatencyPanicsOnBadBatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ResNet50().IterLatencyMean(0, 1, 1)
}

func TestIterLatencyDist(t *testing.T) {
	m := ResNet50()
	d := m.IterLatencyDist(512, 1, 1)
	if math.Abs(d.Mean()-4.0) > 1e-9 {
		t.Errorf("dist mean %v, want 4", d.Mean())
	}
	// Zero noise yields a deterministic distribution.
	m2 := *m
	m2.IterNoiseStd = 0
	if _, ok := m2.IterLatencyDist(512, 2, 1).(stats.Deterministic); !ok {
		t.Error("zero-noise model not deterministic")
	}
}

func TestLearningCurveShape(t *testing.T) {
	m := ResNet101()
	cfg := lrConfig(math.Exp(m.Curve.OptLogLR))
	// Monotone increasing with diminishing returns over equal-width
	// iteration windows.
	prev := m.AccuracyAt(cfg, 0)
	prevGain := math.Inf(1)
	for it := 10; it <= 80; it += 10 {
		acc := m.AccuracyAt(cfg, it)
		if acc <= prev {
			t.Errorf("accuracy not increasing at %d iters: %v <= %v", it, acc, prev)
		}
		gain := acc - prev
		if gain >= prevGain {
			t.Errorf("returns not diminishing at %d iters", it)
		}
		prev, prevGain = acc, gain
	}
	// Converges to the asymptote.
	if got, want := m.AccuracyAt(cfg, 100000), m.Asymptote(cfg); math.Abs(got-want) > 1e-6 {
		t.Errorf("converged accuracy %v, want asymptote %v", got, want)
	}
	// The ideal config reaches the ceiling.
	if math.Abs(m.Asymptote(cfg)-m.Curve.AccCeil) > 0.02 {
		t.Errorf("ideal asymptote %v far from ceiling %v", m.Asymptote(cfg), m.Curve.AccCeil)
	}
}

func TestBadLRHurtsAccuracy(t *testing.T) {
	m := ResNet101()
	good := lrConfig(math.Exp(m.Curve.OptLogLR))
	bad := lrConfig(math.Exp(m.Curve.OptLogLR + 6))
	if m.Asymptote(bad) >= m.Asymptote(good) {
		t.Error("bad lr not penalized")
	}
	terrible := lrConfig(-1.0)
	if a := m.Asymptote(terrible); a > m.Curve.AccFloor+0.05 {
		t.Errorf("non-positive lr asymptote %v too high", a)
	}
}

func TestAccuracyAtZeroIters(t *testing.T) {
	m := ResNet101()
	cfg := lrConfig(0.1)
	if acc := m.AccuracyAt(cfg, 0); acc != 0 {
		t.Errorf("accuracy at 0 iters = %v, want 0", acc)
	}
}

func TestAccuracyPanicsOnNegativeIters(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ResNet101().AccuracyAt(searchspace.Config{}, -1)
}

func TestObserveAccuracyNoisyButClose(t *testing.T) {
	m := ResNet101()
	cfg := lrConfig(0.1)
	r := stats.NewRNG(1)
	truth := m.AccuracyAt(cfg, 20)
	var sum float64
	const n = 2000
	differs := false
	for i := 0; i < n; i++ {
		obs := m.ObserveAccuracy(cfg, 20, r)
		if obs < 0 || obs > 1 {
			t.Fatalf("observation %v out of [0,1]", obs)
		}
		if obs != truth {
			differs = true
		}
		sum += obs
	}
	if !differs {
		t.Error("observations carry no noise")
	}
	if math.Abs(sum/n-truth) > 0.002 {
		t.Errorf("observation mean %v far from truth %v", sum/n, truth)
	}
}

func TestSHASelectsGoodConfigs(t *testing.T) {
	// End-to-end sanity on the learning-curve design: ranking trials by
	// observed accuracy after a few iterations must correlate with final
	// quality, or early stopping would be useless.
	m := ResNet101()
	space := searchspace.DefaultVisionSpace()
	r := stats.NewRNG(42)
	configs := space.SampleN(r, 32)

	bestEarly, bestEarlyIdx := -1.0, 0
	bestFinal := -1.0
	for i, cfg := range configs {
		if early := m.ObserveAccuracy(cfg, 4, r); early > bestEarly {
			bestEarly, bestEarlyIdx = early, i
		}
		if final := m.Asymptote(cfg); final > bestFinal {
			bestFinal = final
		}
	}
	// The early winner should be within a few points of the true best.
	if got := m.Asymptote(configs[bestEarlyIdx]); got < bestFinal-0.05 {
		t.Errorf("early selection picked asymptote %v, best %v", got, bestFinal)
	}
}

// Property: accuracy is always within [0, asymptote] ⊂ [0, 1] and monotone
// in iterations for any config in the vision space.
func TestQuickAccuracyBounds(t *testing.T) {
	m := ResNet101()
	space := searchspace.DefaultVisionSpace()
	f := func(seed uint64, aRaw, bRaw uint8) bool {
		cfg := space.Sample(stats.NewRNG(seed))
		a, b := int(aRaw), int(bRaw)
		if a > b {
			a, b = b, a
		}
		accA, accB := m.AccuracyAt(cfg, a), m.AccuracyAt(cfg, b)
		asym := m.Asymptote(cfg)
		return accA >= 0 && accB <= asym && asym <= 1 && accA <= accB
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// lrConfig returns a configuration whose only value is lr: a sample of
// the one-point space [lr, lr].
func lrConfig(lr float64) searchspace.Config {
	return searchspace.MustNew(searchspace.Uniform{Key: "lr", Lo: lr, Hi: lr}).Sample(stats.NewRNG(1))
}

// refObserveOn is ObserveOn as it was before the growth factor was
// exposed: the curve and the noise in one expression. It is the oracle
// TestObserveOnMatchesReference holds the growth-factor path to.
func refObserveOn(m *Model, asym float64, cumIters int, r *stats.RNG) float64 {
	acc := asym*(1-math.Exp(-float64(cumIters)/m.Curve.Tau)) + m.Curve.NoiseStd*r.NormFloat64()
	if acc < 0 {
		return 0
	}
	if acc > 1 {
		return 1
	}
	return acc
}

// TestObserveOnMatchesReference: on every zoo model, ObserveOn and
// ObserveGrown over Growth give the reference's accuracy bit for bit and
// consume the same draws, and AccuracyAt is Asymptote times Growth.
func TestObserveOnMatchesReference(t *testing.T) {
	cfg := searchspace.DefaultVisionSpace().Sample(stats.NewRNG(3))
	for _, m := range Zoo() {
		got, grown, want := stats.NewRNG(5), stats.NewRNG(5), stats.NewRNG(5)
		for k := 0; k <= 400; k++ {
			for _, asym := range []float64{0, 0.42, 0.97, 1.3} {
				w := refObserveOn(m, asym, k, want)
				g := m.ObserveOn(asym, k, got)
				gg := m.ObserveGrown(asym, m.Growth(k), grown)
				if math.Float64bits(g) != math.Float64bits(w) || math.Float64bits(gg) != math.Float64bits(w) ||
					*got != *want || *grown != *want {
					t.Fatalf("%s k=%d asym=%v: ObserveOn %v, ObserveGrown %v, reference %v", m.Name, k, asym, g, gg, w)
				}
			}
			a := m.Asymptote(cfg)
			if got, want := m.AccuracyAt(cfg, k), a*(1-math.Exp(-float64(k)/m.Curve.Tau)); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s k=%d: AccuracyAt %v, reference %v", m.Name, k, got, want)
			}
		}
	}
}

// AccuracyAt returns the noiseless validation accuracy after cumIters
// training iterations for cfg.
func (m *Model) AccuracyAt(cfg searchspace.Config, cumIters int) float64 {
	return m.Asymptote(cfg) * m.Growth(cumIters)
}
