package stats

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{5})
	if s.N != 1 || s.Mean != 5 || s.Std != 0 || s.Min != 5 || s.Max != 5 || s.P50 != 5 {
		t.Fatalf("unexpected: %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Mean != 3 {
		t.Errorf("mean %v != 3", s.Mean)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("std %v != sqrt(2.5)", s.Std)
	}
	if s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Errorf("order stats wrong: %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	sorted := []float64{0, 10}
	if p := Percentile(sorted, 0.5); p != 5 {
		t.Errorf("p50 of {0,10} = %v, want 5", p)
	}
	if p := Percentile(sorted, 0); p != 0 {
		t.Errorf("p0 = %v, want 0", p)
	}
	if p := Percentile(sorted, 1); p != 10 {
		t.Errorf("p100 = %v, want 10", p)
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"empty", func() { Percentile(nil, 0.5) }},
		{"p<0", func() { Percentile([]float64{1}, -0.1) }},
		{"p>1", func() { Percentile([]float64{1}, 1.1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestMeanStd(t *testing.T) {
	m, s := MeanStd([]float64{2, 4, 6})
	if m != 4 {
		t.Errorf("mean %v != 4", m)
	}
	if math.Abs(s-2) > 1e-12 {
		t.Errorf("std %v != 2", s)
	}
}

// Property: Min <= P50 <= Max and Min <= Mean <= Max for any input.
func TestQuickSummaryOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		s := Summarize(xs)
		return s.Min <= s.P50 && s.P50 <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max &&
			s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: percentiles are monotone in p.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []uint16, aRaw, bRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		sort.Float64s(xs)
		a := float64(aRaw) / 255
		b := float64(bRaw) / 255
		if a > b {
			a, b = b, a
		}
		return Percentile(xs, a) <= Percentile(xs, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMeanStdInPlaceMatchesSummarize: the in-place reduction is
// Summarize's mean and std bit for bit, including on unsorted input,
// and leaves its argument sorted.
func TestMeanStdInPlaceMatchesSummarize(t *testing.T) {
	r := NewRNG(5)
	for n := 0; n < 40; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Exp(3 * r.NormFloat64())
		}
		want := Summarize(xs)
		mean, std := MeanStdInPlace(xs)
		if mean != want.Mean || std != want.Std {
			t.Fatalf("n=%d: MeanStdInPlace (%v, %v), Summarize (%v, %v)", n, mean, std, want.Mean, want.Std)
		}
		if !sort.Float64sAreSorted(xs) {
			t.Fatalf("n=%d: input not left sorted", n)
		}
	}
}

// specials are the values whose order sort.Float64s defines beyond <:
// NaN sorts first, and −0 and +0 compare equal.
var specials = []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, -1, 5e-324}

// TestMeanStdInPlaceMatchesSortFloat64s: every column of 0 to 64 values,
// with and without NaN, ±0 and ±Inf, and with many repeats, is left
// exactly as sort.Float64s leaves it, and its mean and std are the sums
// over that order.
func TestMeanStdInPlaceMatchesSortFloat64s(t *testing.T) {
	r := NewRNG(11)
	for n := 0; n <= 64; n++ {
		for trial := 0; trial < 50; trial++ {
			xs := make([]float64, n)
			for i := range xs {
				switch r.Intn(4) {
				case 0:
					xs[i] = specials[r.Intn(len(specials))]
				case 1:
					xs[i] = float64(r.Intn(5) - 2)
				default:
					xs[i] = math.Exp(3 * r.NormFloat64())
				}
			}
			want := append([]float64(nil), xs...)
			sort.Float64s(want)
			var wm, ws, sum, ss float64
			for _, x := range want {
				sum += x
			}
			if n > 0 {
				wm = sum / float64(n)
			}
			for _, x := range want {
				ss += (x - wm) * (x - wm)
			}
			if n > 1 {
				ws = math.Sqrt(ss / float64(n-1))
			}
			gm, gs := MeanStdInPlace(xs)
			if math.Float64bits(gm) != math.Float64bits(wm) || math.Float64bits(gs) != math.Float64bits(ws) {
				t.Fatalf("%v: MeanStdInPlace (%v, %v), want (%v, %v)", want, gm, gs, wm, ws)
			}
			for i := range xs {
				if math.Float64bits(xs[i]) != math.Float64bits(want[i]) {
					t.Fatalf("sorted to %v, sort.Float64s %v", xs, want)
				}
			}
		}
	}
}

// BenchmarkMeanStdInPlace reduces a column of n values, as the profiler
// and the experiment tables do.
func BenchmarkMeanStdInPlace(b *testing.B) {
	for _, n := range []int{4, 16, 20} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := NewRNG(3)
			src := make([]float64, n)
			for i := range src {
				src[i] = math.Exp(3 * r.NormFloat64())
			}
			xs := make([]float64, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(xs, src)
				MeanStdInPlace(xs)
			}
		})
	}
}
