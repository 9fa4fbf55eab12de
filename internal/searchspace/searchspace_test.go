package searchspace

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestUniformBounds(t *testing.T) {
	s := MustNew(Uniform{Key: "x", Lo: 2, Hi: 5})
	r := stats.NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := s.Sample(r).Float("x")
		if v < 2 || v >= 5 {
			t.Fatalf("uniform out of range: %v", v)
		}
	}
}

func TestLogUniformBounds(t *testing.T) {
	s := MustNew(LogUniform{Key: "lr", Lo: 1e-4, Hi: 1})
	r := stats.NewRNG(2)
	for i := 0; i < 1000; i++ {
		v := s.Sample(r).Float("lr")
		if v < 1e-4 || v > 1 {
			t.Fatalf("loguniform out of range: %v", v)
		}
	}
}

func TestLogUniformIsLogScale(t *testing.T) {
	// Roughly half the mass should land below the geometric midpoint.
	s := MustNew(LogUniform{Key: "lr", Lo: 1e-4, Hi: 1})
	r := stats.NewRNG(3)
	mid := math.Sqrt(1e-4 * 1) // 1e-2
	below := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if s.Sample(r).Float("lr") < mid {
			below++
		}
	}
	frac := float64(below) / n
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("fraction below geometric midpoint = %v, want ~0.5", frac)
	}
}

func TestIntRange(t *testing.T) {
	s := MustNew(IntRange{Key: "layers", Lo: 2, Hi: 4})
	r := stats.NewRNG(4)
	seen := make(map[float64]bool)
	for i := 0; i < 1000; i++ {
		v := s.Sample(r).Float("layers")
		if v != math.Trunc(v) || v < 2 || v > 4 {
			t.Fatalf("IntRange sampled %v", v)
		}
		seen[v] = true
	}
	if len(seen) != 3 {
		t.Errorf("expected all of {2,3,4}, saw %v", seen)
	}
}

func TestChoice(t *testing.T) {
	s := MustNew(Choice{Key: "opt", Options: []string{"sgd", "adam"}})
	r := stats.NewRNG(5)
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		seen[s.Sample(r).Str("opt")] = true
	}
	if !seen["sgd"] || !seen["adam"] {
		t.Errorf("choice did not cover options: %v", seen)
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	cases := []struct {
		name string
		dims []Dimension
	}{
		{"empty name", []Dimension{Uniform{Key: ""}}},
		{"duplicate", []Dimension{Uniform{Key: "a", Hi: 1}, Choice{Key: "a", Options: []string{"x"}}}},
		{"uniform hi<lo", []Dimension{Uniform{Key: "a", Lo: 2, Hi: 1}}},
		{"loguniform lo<=0", []Dimension{LogUniform{Key: "a", Lo: 0, Hi: 1}}},
		{"intrange hi<lo", []Dimension{IntRange{Key: "a", Lo: 3, Hi: 1}}},
		{"choice empty", []Dimension{Choice{Key: "a"}}},
	}
	for _, tc := range cases {
		if _, err := New(tc.dims...); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestSampleDeterministic(t *testing.T) {
	s := DefaultVisionSpace()
	a := s.SampleN(stats.NewRNG(7), 5)
	b := s.SampleN(stats.NewRNG(7), 5)
	for i := range a {
		for _, k := range s.Dimensions() {
			if a[i].Float(k) != b[i].Float(k) {
				t.Fatalf("sample %d key %s differs", i, k)
			}
		}
	}
}

func TestDimensionsSorted(t *testing.T) {
	s := DefaultVisionSpace()
	dims := s.Dimensions()
	want := []string{"lr", "momentum", "weight_decay"}
	if len(dims) != len(want) {
		t.Fatalf("dims = %v", dims)
	}
	for i := range want {
		if dims[i] != want[i] {
			t.Fatalf("dims = %v, want %v", dims, want)
		}
	}
}

func TestConfigPanics(t *testing.T) {
	c := MustNew(Uniform{Key: "x", Lo: 1, Hi: 1}, Choice{Key: "s", Options: []string{"v"}}).Sample(stats.NewRNG(1))
	for name, fn := range map[string]func(){
		"missing float":  func() { c.Float("nope") },
		"wrong type":     func() { c.Float("s") },
		"missing string": func() { c.Str("nope") },
		"not string":     func() { c.Str("x") },
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
	if c.Float("x") != 1.0 || c.Str("s") != "v" {
		t.Error("valid accessors failed")
	}
}

func TestDefaultNLPSpace(t *testing.T) {
	s := DefaultNLPSpace()
	cfg := s.Sample(stats.NewRNG(9))
	if lr := cfg.Float("lr"); lr < 1e-6 || lr > 1e-3 {
		t.Errorf("nlp lr %v out of range", lr)
	}
}

// Property: every sampled config contains exactly the space's dimensions
// with in-range values.
func TestQuickSampleComplete(t *testing.T) {
	f := func(seed uint64) bool {
		s := DefaultVisionSpace()
		cfg := s.Sample(stats.NewRNG(seed))
		if cfg.Len() != 3 {
			return false
		}
		lr := cfg.Float("lr")
		mom := cfg.Float("momentum")
		wd := cfg.Float("weight_decay")
		return lr >= 1e-4 && lr <= 1 && mom >= 0.8 && mom < 0.99 && wd >= 1e-6 && wd <= 1e-2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Dimensions returns the dimension names in sorted order.
func (s *Space) Dimensions() []string {
	names := make([]string, len(s.dims))
	for i, d := range s.dims {
		names[i] = d.Name()
	}
	sort.Strings(names)
	return names
}

// TestForModel: bert tunes in the NLP space, every other zoo model in
// the vision space.
func TestForModel(t *testing.T) {
	if ForModel("bert") != DefaultNLPSpace() {
		t.Error("bert does not tune in the NLP space")
	}
	for _, name := range []string{"resnet50", "resnet101", "resnet152"} {
		if ForModel(name) != DefaultVisionSpace() {
			t.Errorf("%s does not tune in the vision space", name)
		}
	}
}
