package sim

import "repro/internal/spec"

// scratch is the working memory of a Simulator's estimates, kept for the
// Simulator's whole life: Init and Reset keep it, so an owner that
// re-initialises a Simulator for each job estimates without allocating.
// No value in it carries a result from one use to the next: each is
// fully overwritten before it is read, so keeping it saves allocations
// and cannot change an estimate.
type scratch struct {
	// cp is the plan Estimate and Breakdown compile into, and groups
	// price's billing stack.
	cp     compiledPlan
	groups []birthGroup
}

// reserve sizes the scratch for plans of sp, so that estimating them
// allocates no scratch: the compiled plan's two columns (carved from
// one array) and the billing stack hold a stage each. It allocates only
// when an earlier job left less capacity.
func (sc *scratch) reserve(sp *spec.ExperimentSpec) {
	n := sp.NumStages()
	if cp := &sc.cp; cap(cp.segs) < n {
		refs := make([]ref, 2*n)
		cp.segs, cp.moms = refs[:0:n], refs[n:n:2*n]
	}
	sc.groups = reserve(sc.groups, n)
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
