package sim

import (
	"repro/internal/spec"
	"repro/internal/stats"
)

// scratch is the working memory of a Simulator's estimates, kept for the
// Simulator's whole life: Init and Reset keep it, so an owner that
// re-initialises a Simulator for each job estimates without allocating.
// No value in it carries a result from one use to the next: each is
// fully overwritten before it is read, so keeping it saves allocations
// and cannot change an estimate.
type scratch struct {
	// eval is Estimate's analytic evaluator. Its compiled plan also
	// serves the Monte-Carlo fallback and Breakdown, which run only after
	// the evaluator is done with it.
	eval AnalyticEval
	// jcts and costs are the Monte-Carlo fallback's per-draw columns,
	// which summarize reduces, and stack is priceSchedule's billing
	// stack.
	jcts, costs []float64
	stack       []cohort
	// base is the root stream of the segment a sample fill draws, rng
	// the stream of its current draw and lat the buffer segment.eval
	// draws a segment's INIT and TRAIN latencies into.
	base, rng stats.RNG
	lat       []float64
}

// reserve sizes the scratch for plans of sp, so that estimating them
// allocates no scratch: the compiled plan's three columns (carved from
// one array) and the billing stack hold a stage each, and the latency
// buffer the widest stage's trials. It allocates only when an earlier
// job left less capacity.
func (sc *scratch) reserve(sp *spec.ExperimentSpec) {
	n, trials := sp.NumStages(), 0
	for i := 0; i < n; i++ {
		trials = max(trials, sp.Stage(i).Trials)
	}
	if cp := &sc.eval.cp; cap(cp.segs) < n {
		refs := make([]ref, 3*n)
		cp.segs, cp.vecs, cp.moms = refs[:0:n], refs[n:n:2*n], refs[2*n:2*n:3*n]
	}
	sc.eval.groups = reserve(sc.eval.groups, n)
	sc.lat = reserve(sc.lat, trials)
}

// evaluator returns s's analytic evaluator, bound to s.
func (s *Simulator) evaluator() *AnalyticEval {
	e := &s.scr.eval
	e.sim = s
	return e
}

// draw fills v[k] with draw k of sg, whose Simulator's provisioning
// latencies are prov, on the stream derived from the fill's root stream.
func (sc *scratch) draw(sg *segment, prov *provLats, v []segSample, k int) {
	sc.base.StreamInto(uint64(k), &sc.rng)
	v[k], sc.lat = sg.eval(prov, &sc.rng, sc.lat)
}

// reserve returns s emptied, with capacity for at least n elements.
func reserve[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// resize returns s with length n, reusing its capacity when it suffices.
// Callers overwrite every element before reading it.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
