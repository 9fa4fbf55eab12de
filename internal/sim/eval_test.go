package sim

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// evalPerDraw is segment.eval as it was before the batched draws: one
// Lat.Sample call, and with it one opcode dispatch, per INIT and per
// TRAIN, with a per-slot finish column as scratch. It is the oracle
// checkEval holds eval to.
func (sg *segment) evalPerDraw(prov *provLats, r *stats.RNG, fin []float64) (segSample, []float64) {
	if cap(fin) < int(sg.opening) {
		fin = make([]float64, sg.opening)
	}
	fin = fin[:sg.opening]
	var out segSample
	var span, open float64
	if sg.grow > 0 {
		var start float64
		out.scaleFin = start + prov.scale.Sample(r)
		if out.scaleFin > start {
			start = out.scaleFin
		}
		span = start
		for k := int32(0); k < sg.grow; k++ {
			f := start + prov.init.Sample(r)
			if f > open {
				open = f
			}
		}
		if open > span {
			span = open
		}
	}
	var slot int32
	for tr := int32(0); tr < sg.trials; tr++ {
		start := open
		if tr >= sg.opening {
			start = 0
			if f := fin[slot]; f > 0 {
				start = f
			}
		}
		f := start + sg.train.Sample(r)
		fin[slot] = f
		out.trainSec += f - start
		if f > span {
			span = f
		}
		if slot++; slot == sg.opening {
			slot = 0
		}
	}
	out.dur = span
	return out, fin
}

// evalLats are TRAIN and INIT latencies of the kinds the kernel meets:
// the deterministic and normal TRAINs every profile compiles to (one
// normal truncating at zero on most draws), and the log-normal, repeated
// and opaque ones a custom profile can give.
var evalLats = []stats.Lat{
	stats.CompileLat(stats.Deterministic{Value: 20}),
	stats.CompileLat(stats.Normal{Mu: 30, Sigma: 4}),
	stats.CompileLat(stats.Normal{Mu: 1, Sigma: 5}),
	stats.CompileLat(stats.LogNormal{Mu: 3, Sigma: 0.3}),
	stats.SumLat(stats.Uniform{Lo: 5, Hi: 9}, 3),
	stats.CompileLat(stats.Scaled{D: stats.Exponential{MeanValue: 2}, Factor: 3}),
}

// checkEval draws the segment draws times from one stream through eval
// and through evalPerDraw, each reusing its scratch, and requires the
// same segSample bit for bit at every draw and the same stream state
// after it.
func checkEval(t *testing.T, sg *segment, prov *provLats, seed uint64, draws int) {
	t.Helper()
	got, want := stats.NewRNG(seed), stats.NewRNG(seed)
	var lat, fin []float64
	for k := 0; k < draws; k++ {
		var g, w segSample
		g, lat = sg.eval(prov, got, lat)
		w, fin = sg.evalPerDraw(prov, want, fin)
		if math.Float64bits(g.dur) != math.Float64bits(w.dur) ||
			math.Float64bits(g.scaleFin) != math.Float64bits(w.scaleFin) ||
			math.Float64bits(g.trainSec) != math.Float64bits(w.trainSec) {
			t.Fatalf("segment {grow %d trials %d opening %d} draw %d: eval %+v, per draw %+v",
				sg.grow, sg.trials, sg.opening, k, g, w)
		}
		if *got != *want {
			t.Fatalf("segment {grow %d trials %d opening %d} draw %d: stream state differs",
				sg.grow, sg.trials, sg.opening, k)
		}
	}
}

// evalSegment builds a segment of the given shape and latencies, and
// the provisioning latencies it is drawn with.
func evalSegment(grow, trials, opening int32, init, train stats.Lat) (*segment, *provLats) {
	return &segment{grow: grow, trials: trials, opening: opening, train: train},
		&provLats{scale: stats.CompileLat(stats.Exponential{MeanValue: 5}), init: init}
}

// TestEvalMatchesPerDraw: over every TRAIN kind, clusters that do and do
// not grow, and stages with and without queued TRAINs, the batched eval
// draws what the per-draw eval does.
func TestEvalMatchesPerDraw(t *testing.T) {
	seed := uint64(1)
	for _, train := range evalLats {
		for _, init := range evalLats {
			for _, grow := range []int32{0, 1, 3, 9} {
				for _, shape := range [][2]int32{{1, 1}, {4, 4}, {9, 2}, {24, 8}, {5, 3}} {
					sg, prov := evalSegment(grow, shape[0], shape[1], init, train)
					checkEval(t, sg, prov, seed, 5)
					seed++
				}
			}
		}
	}
}

// FuzzEvalMatchesPerDraw runs checkEval over segment shapes and latency
// kinds the fuzzer picks.
func FuzzEvalMatchesPerDraw(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(1), uint8(1), uint8(1), uint64(1))
	f.Add(uint8(4), uint8(23), uint8(7), uint8(2), uint8(4), uint64(2))
	f.Add(uint8(9), uint8(40), uint8(40), uint8(3), uint8(5), uint64(3))
	f.Fuzz(func(t *testing.T, grow, trials, opening, initKind, trainKind uint8, seed uint64) {
		n := 1 + int32(trials)%48
		sg, prov := evalSegment(int32(grow)%16, n, 1+int32(opening)%n,
			evalLats[int(initKind)%len(evalLats)], evalLats[int(trainKind)%len(evalLats)])
		checkEval(t, sg, prov, seed, 4)
	})
}
