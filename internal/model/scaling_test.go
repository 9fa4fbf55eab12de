package model

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSpeedupOneGPU(t *testing.T) {
	p := ScalingProfile{AlphaIntra: 0.05, AlphaInter: 0.3}
	if s := p.Speedup(1, 1); s != 1 {
		t.Fatalf("speedup(1,1) = %v, want 1", s)
	}
}

func TestSpeedupSublinear(t *testing.T) {
	p := ResNet50().Scaling
	for g := 2; g <= 64; g *= 2 {
		s := p.Speedup(g, 1)
		if s >= float64(g) {
			t.Errorf("speedup(%d) = %v not sub-linear", g, s)
		}
		if s <= p.Speedup(g/2, 1) {
			t.Errorf("speedup not increasing at %d GPUs", g)
		}
	}
}

func TestSpeedupMatchesTable1(t *testing.T) {
	// Table 1: placement-aware ResNet-50 reaches ~3.7x at 4 GPUs
	// (2773/749.6); placement-unaware only ~1.8x (1209/673.8).
	p := ResNet50().Scaling
	colocated := p.Speedup(4, 1)
	if colocated < 3.4 || colocated > 4.0 {
		t.Errorf("co-located speedup at 4 GPUs = %v, want ~3.7", colocated)
	}
	scattered := p.Speedup(4, 4)
	if scattered < 1.4 || scattered > 2.3 {
		t.Errorf("scattered speedup at 4 GPUs = %v, want ~1.8", scattered)
	}
	if scattered >= colocated {
		t.Error("scattering did not hurt")
	}
}

func TestSpeedupNodesClamped(t *testing.T) {
	p := ScalingProfile{AlphaIntra: 0.05, AlphaInter: 0.3}
	if a, b := p.Speedup(2, 8), p.Speedup(2, 2); a != b {
		t.Errorf("nodes > gpus not clamped: %v vs %v", a, b)
	}
}

func TestSpeedupPanics(t *testing.T) {
	p := ScalingProfile{}
	for name, fn := range map[string]func(){
		"g=0":     func() { p.Speedup(0, 1) },
		"nodes=0": func() { p.Speedup(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestEfficiencyDecreasing(t *testing.T) {
	p := ResNet50().Scaling
	prev := p.Speedup(1, 1) / float64(1)
	for g := 2; g <= 32; g *= 2 {
		e := p.Speedup(g, 1) / float64(g)
		if e >= prev {
			t.Errorf("efficiency not decreasing at %d GPUs: %v >= %v", g, e, prev)
		}
		prev = e
	}
}

func TestMinNodes(t *testing.T) {
	cases := []struct{ g, per, want int }{
		{1, 4, 1}, {4, 4, 1}, {5, 4, 2}, {8, 4, 2}, {9, 4, 3}, {3, 8, 1},
	}
	for _, c := range cases {
		if got := MinNodes(c.g, c.per); got != c.want {
			t.Errorf("MinNodes(%d,%d) = %d, want %d", c.g, c.per, got, c.want)
		}
	}
}

func TestMinNodesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MinNodes(0, 4)
}

func TestInterpolatedScalingExact(t *testing.T) {
	s, err := NewInterpolatedScaling([]int{1, 2, 4, 8}, []float64{1, 1.9, 3.6, 6.5})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range []int{1, 2, 4, 8} {
		want := []float64{1, 1.9, 3.6, 6.5}[i]
		if got := s.Speedup(g); math.Abs(got-want) > 1e-12 {
			t.Errorf("Speedup(%d) = %v, want %v", g, got, want)
		}
	}
}

func TestInterpolatedScalingBetween(t *testing.T) {
	s, _ := NewInterpolatedScaling([]int{1, 4}, []float64{1, 3.6})
	// Log-linear interpolation at 2 GPUs: exp(0.5*ln 3.6) = sqrt(3.6).
	want := math.Sqrt(3.6)
	if got := s.Speedup(2); math.Abs(got-want) > 1e-9 {
		t.Errorf("Speedup(2) = %v, want %v", got, want)
	}
}

func TestInterpolatedScalingExtrapolation(t *testing.T) {
	s, _ := NewInterpolatedScaling([]int{1, 2, 4}, []float64{1, 1.9, 3.6})
	v := s.Speedup(16)
	if v < 3.6 {
		t.Errorf("extrapolated speedup %v below last sample", v)
	}
	if v > 16 {
		t.Errorf("extrapolated speedup %v super-linear", v)
	}
	// Single-sample profile extrapolates flat.
	one, _ := NewInterpolatedScaling([]int{1}, []float64{1})
	if got := one.Speedup(8); got != 1 {
		t.Errorf("single-sample extrapolation = %v, want 1", got)
	}
}

func TestInterpolatedScalingValidation(t *testing.T) {
	cases := []struct {
		name     string
		gpus     []int
		speedups []float64
	}{
		{"empty", nil, nil},
		{"mismatch", []int{1, 2}, []float64{1}},
		{"not starting at 1", []int{2, 4}, []float64{1, 2}},
		{"not increasing", []int{1, 4, 2}, []float64{1, 2, 3}},
		{"non-positive speedup", []int{1, 2}, []float64{1, 0}},
	}
	for _, c := range cases {
		if _, err := NewInterpolatedScaling(c.gpus, c.speedups); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestInterpolatedSamplesCopied(t *testing.T) {
	s, _ := NewInterpolatedScaling([]int{1, 2}, []float64{1, 1.8})
	g, sp := s.Samples()
	g[0], sp[0] = 99, 99
	g2, sp2 := s.Samples()
	if g2[0] != 1 || sp2[0] != 1 {
		t.Fatal("Samples exposed internal slices")
	}
}

// Property: speedup is monotone non-decreasing in g and non-increasing in
// node spread for every zoo model.
func TestQuickSpeedupMonotone(t *testing.T) {
	models := Zoo()
	f := func(mi, gRaw, nRaw uint8) bool {
		m := models[int(mi)%len(models)]
		g := int(gRaw%63) + 1
		n := int(nRaw%8) + 1
		s := m.Scaling
		if s.Speedup(g+1, n) < s.Speedup(g, n)-1e-9 {
			return false
		}
		if s.Speedup(g, n+1) > s.Speedup(g, n)+1e-9 {
			return false
		}
		return s.Speedup(g, n) <= float64(g)+1e-9 && s.Speedup(g, n) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
