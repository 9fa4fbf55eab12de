package stats

import (
	"math"
	"testing"
)

// refSample is Lat.Sample as it was before SampleInto: one opcode
// dispatch per draw. It is the oracle TestSampleIntoMatchesPerDraw holds
// the batched draw to.
func refSample(l *Lat, r *RNG) float64 {
	switch l.op {
	case opDet:
		return l.p0
	case opNormal:
		v := l.p0 + l.p1*r.NormFloat64()
		if v < 0 {
			return 0
		}
		return v
	case opLogNormal:
		return math.Exp(l.p0 + l.p1*r.NormFloat64())
	case opUniform:
		return l.p0 + (l.p1-l.p0)*r.Float64()
	case opExp:
		u := r.Float64()
		if u >= 1 {
			u = math.Nextafter(1, 0)
		}
		return -l.p0 * math.Log(1-u)
	case opPareto:
		u := r.Float64()
		if u == 0 {
			u = math.Nextafter(0, 1)
		}
		return l.p0 / math.Pow(u, 1/l.p1)
	case opRepeat:
		var sum float64
		for j := int32(0); j < l.n; j++ {
			sum += l.d.Sample(r)
		}
		return sum
	}
	return l.d.Sample(r)
}

// sampleLats are compiled latencies of every opcode, a normal that
// truncates at zero on most draws among them.
func sampleLats() []Lat {
	return []Lat{
		CompileLat(Deterministic{Value: 7}),
		CompileLat(Normal{Mu: 30, Sigma: 4}),
		CompileLat(Normal{Mu: 1, Sigma: 5}), // truncates at 0
		CompileLat(LogNormal{Mu: 1, Sigma: 0.5}),
		CompileLat(Uniform{Lo: -2, Hi: 6}),
		CompileLat(Exponential{MeanValue: 10}),
		CompileLat(Pareto{Scale: 2, Alpha: 1.5}),
		SumLat(Uniform{Lo: 5, Hi: 9}, 3),                            // opRepeat
		CompileLat(Scaled{D: Exponential{MeanValue: 2}, Factor: 3}), // opDist
	}
}

// TestSampleIntoMatchesPerDraw: for every opcode, SampleInto fills its
// column with the draws, bit for bit, that the per-draw reference makes
// one call at a time, and leaves the stream in the same state; Sample is
// its one-draw case.
func TestSampleIntoMatchesPerDraw(t *testing.T) {
	for i, l := range sampleLats() {
		for n := 0; n <= 40; n++ {
			got, want := NewRNG(uint64(100*i+n)), NewRNG(uint64(100*i+n))
			col := make([]float64, n)
			l.SampleInto(got, col)
			for k, v := range col {
				if w := refSample(&l, want); math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("lat %d n %d draw %d: SampleInto %v, per-draw %v", i, n, k, v, w)
				}
			}
			if *got != *want {
				t.Fatalf("lat %d n %d: stream state differs after the draws", i, n)
			}
			if v, w := l.Sample(got), refSample(&l, want); math.Float64bits(v) != math.Float64bits(w) || *got != *want {
				t.Fatalf("lat %d: Sample %v, per-draw %v", i, v, w)
			}
		}
	}
}

// TestScaledPointerMatchesValue: a latency compiled from a *Scaled —
// how an owner passes a scaled distribution it rewrites in place without
// boxing it anew — samples, reports moments and proves non-negativity
// exactly as one compiled from the Scaled value.
func TestScaledPointerMatchesValue(t *testing.T) {
	for _, s := range []Scaled{
		{D: Exponential{MeanValue: 2}, Factor: 3},
		{D: Normal{Mu: 4, Sigma: 1}, Factor: 0.5},
		{D: Uniform{Lo: -1, Hi: 2}, Factor: 2},
		{D: Exponential{MeanValue: 2}, Factor: -1},
	} {
		byVal, byPtr := CompileLat(s), CompileLat(&s)
		if got, want := byPtr.NonNeg(), byVal.NonNeg(); got != want {
			t.Errorf("%v: NonNeg by pointer %v, by value %v", s, got, want)
		}
		gm, gok := byPtr.Moment()
		wm, wok := byVal.Moment()
		if gm != wm || gok != wok {
			t.Errorf("%v: Moment by pointer %v %v, by value %v %v", s, gm, gok, wm, wok)
		}
		r1, r2 := NewRNG(5), NewRNG(5)
		for i := 0; i < 16; i++ {
			if a, b := byPtr.Sample(r1), byVal.Sample(r2); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%v: draw %d by pointer %v, by value %v", s, i, a, b)
			}
		}
	}
}
