package planner

import (
	"sync"

	"repro/internal/sim"
)

// searchPool holds the working memory of finished searches. Planning a
// job runs several short searches (the initial plan and every online
// replan, each on a fresh Planner), so scratch owned by a Planner would be
// allocated afresh by each of them; the pool outlives them all, the idiom
// of the simulator's estimation scratch.
var searchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// searchScratch is one plan search's working memory: everything a
// search needs that it does not return. It holds
//
//   - the current candidate set and its keep/estimate/error columns;
//   - the static plans 1..n GPUs, their closed-form JCT column, and the
//     warm starts;
//   - the walked-path record: every plan a descent had as its current
//     plan, its allocations copied into one column, with the descent's
//     index into done, the descents' results;
//   - the accepted descent steps, each carved from one column that only
//     grows during a search, so a step's plan stays valid until release.
//
// Every plan the search returns is cloned out of it, so nothing the
// caller holds aliases scratch. Columns that hold no pointer (keep,
// ests, the walked record, the steps, the static and warm-start
// allocations) are overwritten before they are read and never cleared;
// release drops only what can hold a foreign pointer — the results, the
// current candidate and any error recorded — before the scratch goes
// back to the pool.
type searchScratch struct {
	cands candSet
	keep  []bool
	ests  []sim.Estimate
	errs  []error

	staticBack []int
	static     []sim.Plan
	jcts       []float64
	warmBack   []int
	warms      []sim.Plan

	walked       []walkedPlan
	walkedAllocs []int
	done         []Result

	steps []int
}

// walkedPlan is one current plan of a descent: its allocations are
// walkedAllocs[off:off+n] of the scratch, and descent indexes the
// search's done results.
type walkedPlan struct {
	off, n  int32
	descent int
}

// walk records plan as a current plan of the given descent.
func (ss *searchScratch) walk(plan sim.Plan, descent int) {
	ss.walked = append(ss.walked, walkedPlan{off: int32(len(ss.walkedAllocs)), n: int32(len(plan.Alloc)), descent: descent})
	ss.walkedAllocs = append(ss.walkedAllocs, plan.Alloc...)
}

// step returns a copy of an accepted candidate carved from the steps
// column. The column only grows until release, and a run it outgrows
// stays with the plans carved from it, so earlier steps (the current
// plans of finished descents among them) keep their values.
func (ss *searchScratch) step(cand sim.Plan) sim.Plan {
	lo := len(ss.steps)
	ss.steps = append(ss.steps, cand.Alloc...)
	return sim.Plan{Alloc: ss.steps[lo:len(ss.steps):len(ss.steps)]}
}

// walkedPlan returns the allocations of a walked plan.
func (ss *searchScratch) walkedPlan(w walkedPlan) []int {
	return ss.walkedAllocs[w.off : w.off+w.n]
}

// newSearch draws a search's scratch from the pool.
func newSearch() *searchScratch { return searchPool.Get().(*searchScratch) }

// release drops the scratch's references to plans, results and errors
// and returns it to the pool.
func (ss *searchScratch) release() {
	ss.cands.cur = sim.Plan{}
	clearErrs(ss.errs[:cap(ss.errs)])
	clear(ss.done)
	ss.walked, ss.walkedAllocs, ss.done, ss.steps = ss.walked[:0], ss.walkedAllocs[:0], ss.done[:0], ss.steps[:0]
	searchPool.Put(ss)
}

// clearErrs sets every recorded error to nil. Errors are rare, so it
// reads the column and writes only where one was recorded.
func clearErrs(errs []error) {
	for i, err := range errs {
		if err != nil {
			errs[i] = nil
		}
	}
}

// finish records a descent's result for the descents after it.
func (ss *searchScratch) finish(r Result) Result {
	ss.done = append(ss.done, r)
	return r
}

// columns returns the keep, estimate and error columns for n
// candidates: every candidate kept, no error recorded. Estimates are
// written before they are read; errors only where one occurs (see
// estimateInto), so the column stays nil between searches' errors.
func (ss *searchScratch) columns(n int) ([]bool, []sim.Estimate, []error) {
	ss.keep, ss.ests, ss.errs = grow(ss.keep, n), grow(ss.ests, n), grow(ss.errs, n)
	for i := range ss.keep {
		ss.keep[i] = true
	}
	clearErrs(ss.errs)
	return ss.keep, ss.ests, ss.errs
}

// staticPlans returns the static plans of 1..n GPUs over stages stages,
// carved from one backing array.
func (ss *searchScratch) staticPlans(n, stages int) []sim.Plan {
	ss.staticBack = grow(ss.staticBack, n*stages)
	ss.static = grow(ss.static, n)
	for i := range ss.static {
		a := ss.staticBack[i*stages : (i+1)*stages : (i+1)*stages]
		for j := range a {
			a[j] = i + 1
		}
		ss.static[i] = sim.Plan{Alloc: a}
	}
	return ss.static
}

// warmStarts returns base scaled by each multiplier and capped at
// maxGPUs, carved from one backing array.
func (ss *searchScratch) warmStarts(base sim.Plan, mults []int, maxGPUs int) []sim.Plan {
	stages := len(base.Alloc)
	ss.warmBack = grow(ss.warmBack, len(mults)*stages)
	ss.warms = grow(ss.warms, len(mults))
	for d, mult := range mults {
		a := ss.warmBack[d*stages : (d+1)*stages : (d+1)*stages]
		for i, v := range base.Alloc {
			a[i] = min(v*mult, maxGPUs)
		}
		ss.warms[d] = sim.Plan{Alloc: a}
	}
	return ss.warms
}

// grow returns s with length n, reusing its capacity when it suffices.
// Callers overwrite every element they read.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
