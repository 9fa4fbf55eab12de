package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func sampleMean(d Dist, r *RNG, n int) float64 {
	var sum float64
	for i := 0; i < n; i++ {
		sum += d.Sample(r)
	}
	return sum / float64(n)
}

func TestDeterministic(t *testing.T) {
	d := Deterministic{Value: 3.5}
	r := NewRNG(1)
	for i := 0; i < 10; i++ {
		if v := d.Sample(r); v != 3.5 {
			t.Fatalf("sample %v != 3.5", v)
		}
	}
	if d.Mean() != 3.5 {
		t.Fatalf("mean %v != 3.5", d.Mean())
	}
}

func TestNormalMoments(t *testing.T) {
	d := Normal{Mu: 10, Sigma: 2}
	r := NewRNG(2)
	m := sampleMean(d, r, 100000)
	if math.Abs(m-10) > 0.05 {
		t.Errorf("normal sample mean %v not ~10", m)
	}
}

func TestNormalTruncatesAtZero(t *testing.T) {
	d := Normal{Mu: 0.1, Sigma: 5}
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		if v := d.Sample(r); v < 0 {
			t.Fatalf("negative sample %v", v)
		}
	}
}

func TestLogNormalFromMoments(t *testing.T) {
	d := LogNormalFromMoments(8, 2)
	r := NewRNG(4)
	m := sampleMean(d, r, 200000)
	if math.Abs(m-8) > 0.1 {
		t.Errorf("lognormal sample mean %v not ~8", m)
	}
	if math.Abs(d.Mean()-8) > 1e-9 {
		t.Errorf("analytic mean %v != 8", d.Mean())
	}
}

func TestLogNormalFromMomentsZeroStd(t *testing.T) {
	d := LogNormalFromMoments(5, 0)
	r := NewRNG(5)
	for i := 0; i < 100; i++ {
		if v := d.Sample(r); math.Abs(v-5) > 1e-9 {
			t.Fatalf("degenerate lognormal sampled %v", v)
		}
	}
}

func TestLogNormalFromMomentsPanics(t *testing.T) {
	for _, tc := range []struct{ mean, std float64 }{{0, 1}, {-1, 1}, {1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for mean=%v std=%v", tc.mean, tc.std)
				}
			}()
			LogNormalFromMoments(tc.mean, tc.std)
		}()
	}
}

func TestUniform(t *testing.T) {
	d := Uniform{Lo: 2, Hi: 4}
	r := NewRNG(6)
	for i := 0; i < 10000; i++ {
		v := d.Sample(r)
		if v < 2 || v >= 4 {
			t.Fatalf("uniform sample %v out of [2,4)", v)
		}
	}
	if d.Mean() != 3 {
		t.Fatalf("uniform mean %v != 3", d.Mean())
	}
}

func TestExponentialMean(t *testing.T) {
	d := Exponential{MeanValue: 7}
	r := NewRNG(7)
	m := sampleMean(d, r, 200000)
	if math.Abs(m-7) > 0.15 {
		t.Errorf("exponential sample mean %v not ~7", m)
	}
}

func TestScaled(t *testing.T) {
	d := Scaled{D: Deterministic{Value: 4}, Factor: 2.5}
	if v := d.Sample(NewRNG(1)); v != 10 {
		t.Fatalf("scaled sample %v != 10", v)
	}
	if d.Mean() != 10 {
		t.Fatalf("scaled mean %v != 10", d.Mean())
	}
}

// Property: samples from all standard distributions are non-negative when
// configured with non-negative parameters (latencies must never be
// negative).
func TestQuickNonNegativeSamples(t *testing.T) {
	f := func(seed uint64, muRaw, sigmaRaw uint16) bool {
		mu := float64(muRaw%1000) / 10
		sigma := float64(sigmaRaw%100) / 10
		r := NewRNG(seed)
		dists := []Dist{
			Normal{Mu: mu, Sigma: sigma},
			Exponential{MeanValue: mu + 0.1},
			Uniform{Lo: 0, Hi: mu + 1},
			Deterministic{Value: mu},
		}
		for _, d := range dists {
			for i := 0; i < 8; i++ {
				if d.Sample(r) < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: LogNormalFromMoments preserves the analytic mean.
func TestQuickLogNormalMeanPreserved(t *testing.T) {
	f := func(meanRaw, stdRaw uint16) bool {
		mean := float64(meanRaw%1000)/10 + 0.1
		std := float64(stdRaw%500) / 10
		d := LogNormalFromMoments(mean, std)
		return math.Abs(d.Mean()-mean) < 1e-6*mean+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParetoValidation(t *testing.T) {
	if _, err := NewPareto(0, 2); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := NewPareto(1, 1); err == nil {
		t.Error("alpha=1 accepted (infinite mean)")
	}
	if _, err := NewPareto(1, 2); err != nil {
		t.Errorf("valid Pareto rejected: %v", err)
	}
}

func TestParetoMoments(t *testing.T) {
	p, err := NewPareto(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Mean()-3) > 1e-12 { // alpha*xm/(alpha-1) = 3*2/2
		t.Errorf("analytic mean %v, want 3", p.Mean())
	}
	r := NewRNG(11)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := p.Sample(r)
		if v < 2 {
			t.Fatalf("sample %v below scale", v)
		}
		sum += v
	}
	if got := sum / n; math.Abs(got-3) > 0.05 {
		t.Errorf("sample mean %v, want ~3", got)
	}
}

func TestParetoHeavyTail(t *testing.T) {
	// A Pareto with the same mean as an exponential has a heavier tail:
	// more mass far above the mean.
	p, _ := NewPareto(1, 1.5) // mean 3
	e := Exponential{MeanValue: 3}
	r := NewRNG(12)
	const n, cut = 100000, 30.0
	pTail, eTail := 0, 0
	for i := 0; i < n; i++ {
		if p.Sample(r) > cut {
			pTail++
		}
		if e.Sample(r) > cut {
			eTail++
		}
	}
	if pTail <= eTail {
		t.Errorf("Pareto tail count %d not above exponential %d", pTail, eTail)
	}
}

func TestDistStrings(t *testing.T) {
	p, _ := NewPareto(1, 2)
	for _, d := range []Dist{
		Deterministic{Value: 1}, Normal{Mu: 1, Sigma: 2},
		LogNormal{Mu: 0, Sigma: 1}, Uniform{Lo: 0, Hi: 1},
		Exponential{MeanValue: 1}, p,
		Scaled{D: Deterministic{Value: 1}, Factor: 2},
	} {
		if d.String() == "" {
			t.Errorf("%T has empty String", d)
		}
	}
}
