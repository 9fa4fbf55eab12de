package searchspace

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/stats"
)

// referenceSample draws one configuration the way Space.Sample did when
// a Config was a map from name to boxed value: each dimension in order,
// from the same stream.
func referenceSample(s *Space, r *stats.RNG) map[string]any {
	c := make(map[string]any, len(s.dims))
	for _, d := range s.dims {
		switch v := d.(type) {
		case Uniform:
			c[v.Key] = v.Lo + (v.Hi-v.Lo)*r.Float64()
		case LogUniform:
			lo, hi := math.Log(v.Lo), math.Log(v.Hi)
			c[v.Key] = math.Exp(lo + (hi-lo)*r.Float64())
		case IntRange:
			c[v.Key] = float64(v.Lo + r.Intn(v.Hi-v.Lo+1))
		case Choice:
			c[v.Key] = v.Options[r.Intn(len(v.Options))]
		}
	}
	return c
}

// testSpaces are the default spaces plus one with every dimension type.
func testSpaces() []*Space {
	return []*Space{
		DefaultVisionSpace(),
		DefaultNLPSpace(),
		MustNew(
			Choice{Key: "opt", Options: []string{"sgd", "adam", "lamb"}},
			IntRange{Key: "layers", Lo: 2, Hi: 9},
			LogUniform{Key: "lr", Lo: 1e-5, Hi: 1},
			Uniform{Key: "a", Lo: -3, Hi: 3},
		),
	}
}

// TestConfigMatchesMapSampling: SampleN draws every value bit-identical
// to the map-based sampler, and a Config renders with %v and as JSON
// exactly as that map did.
func TestConfigMatchesMapSampling(t *testing.T) {
	for si, s := range testSpaces() {
		cfgs := s.SampleN(stats.NewRNG(uint64(40+si)), 64)
		ref := stats.NewRNG(uint64(40 + si))
		for i, c := range cfgs {
			want := referenceSample(s, ref)
			if c.Len() != len(want) {
				t.Fatalf("space %d config %d has %d values, reference %d", si, i, c.Len(), len(want))
			}
			for name, v := range want {
				var got any
				if str, ok := v.(string); ok {
					got = c.Str(name)
					if n, ok := c.Lookup(name); !ok || n != 0 {
						t.Fatalf("Lookup(%q) of a categorical value = %v, %v; want 0, true", str, n, ok)
					}
				} else {
					got = c.Float(name)
					if n, ok := c.Lookup(name); !ok || math.Float64bits(n) != math.Float64bits(v.(float64)) {
						t.Fatalf("Lookup(%q) = %v, %v; want %v", name, n, ok, v)
					}
				}
				if got != v {
					t.Fatalf("space %d config %d: %s = %v, reference %v", si, i, name, got, v)
				}
			}
			assertRendersLike(t, c, want)
		}
	}
	assertRendersLike(t, Config{}, nil)
	assertRendersLike(t, MustNew().Sample(stats.NewRNG(1)), map[string]any{})
	if _, ok := (Config{}).Lookup("lr"); ok {
		t.Fatal("the zero Config has a value")
	}
}

// TestGridConfigsRenderLikeMaps: grid configurations (sorted layout,
// option indices for Choice values) render like the maps Grid built.
func TestGridConfigsRenderLikeMaps(t *testing.T) {
	s := testSpaces()[2]
	grid, err := s.Grid(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, c := range grid {
		want := map[string]any{"opt": c.Str("opt"), "layers": c.Float("layers"), "lr": c.Float("lr"), "a": c.Float("a")}
		assertRendersLike(t, c, want)
		seen[c.Str("opt")] = true
	}
	if len(seen) != 3 {
		t.Fatalf("grid covers options %v, want all three", seen)
	}
}

func assertRendersLike(t *testing.T, c Config, want map[string]any) {
	t.Helper()
	if got, ref := fmt.Sprintf("%v", c), fmt.Sprintf("%v", want); got != ref {
		t.Fatalf("%%v renders %s, map %s", got, ref)
	}
	got, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := json.Marshal(want)
	if string(got) != string(ref) {
		t.Fatalf("JSON %s, map %s", got, ref)
	}
	wrapped, _ := json.Marshal(struct{ C Config }{c})
	refWrapped, _ := json.Marshal(struct{ C map[string]any }{want})
	if string(wrapped) != string(refWrapped) {
		t.Fatalf("JSON field %s, map field %s", wrapped, refWrapped)
	}
}

// TestDefaultSpacesShared: Space has no mutators, so the default spaces
// are built once and shared.
func TestDefaultSpacesShared(t *testing.T) {
	if DefaultVisionSpace() != DefaultVisionSpace() || DefaultNLPSpace() != DefaultNLPSpace() {
		t.Fatal("a default space is rebuilt per call")
	}
	if DefaultVisionSpace() == DefaultNLPSpace() {
		t.Fatal("the vision and NLP spaces are one Space")
	}
}

// TestSampleNSharesOneSlab: SampleN makes one value slab for all its
// configurations, so drawing n configurations costs a constant number
// of allocations.
func TestSampleNSharesOneSlab(t *testing.T) {
	s, r := DefaultVisionSpace(), stats.NewRNG(1)
	if allocs := testing.AllocsPerRun(20, func() { s.SampleN(r, 50) }); allocs != 2 {
		t.Fatalf("SampleN(50) allocates %v times, want 2 (the value slab and the configs)", allocs)
	}
}

// TestSampleNIntoReusesStorage: SampleNInto draws what SampleN draws,
// and into storage large enough it allocates nothing.
func TestSampleNIntoReusesStorage(t *testing.T) {
	s := DefaultVisionSpace()
	want := s.SampleN(stats.NewRNG(5), 30)
	cfgs, vals := s.SampleNInto(stats.NewRNG(9), 50, nil, nil)
	cfgs, vals = s.SampleNInto(stats.NewRNG(5), 30, cfgs, vals)
	if fmt.Sprint(cfgs) != fmt.Sprint(want) {
		t.Fatalf("SampleNInto drew %v, SampleN %v", cfgs, want)
	}
	r := stats.NewRNG(1)
	if allocs := testing.AllocsPerRun(20, func() { cfgs, vals = s.SampleNInto(r, 50, cfgs, vals) }); allocs != 0 {
		t.Fatalf("SampleNInto into room for 50 allocates %v times, want 0", allocs)
	}
}
