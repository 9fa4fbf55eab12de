package dag

import (
	"math"

	"repro/internal/stats"
)

// This file is the analytic counterpart of SampleInto: one linear pass
// over a compiled Program that propagates (mean, variance) pairs instead
// of Monte-Carlo draws. The pass is exact for deterministic latencies and
// moment-matched (Clark maxima + quantile-sketch gang barriers)
// otherwise; internal/sim validates it against the sampling estimators to
// statistical tolerance.
//
// Correlation through shared history is the crux: two nodes that both
// descend from the same fork share that prefix of their finish times, and
// treating their finishes as independent in a later max double-counts the
// prefix variance. The pass therefore represents every finish time as
//
//	F(i) = B(barID(i)) + rel(i)
//
// where B is a *barrier* — a random variable shared by a whole sibling
// group — and rel is the part independent of the barrier and of the other
// siblings' rels. Barriers form a tree (each created as parent + an
// independent delta), which gives the two operations maxima need:
// lifting a finish to an ancestor barrier (subtracting the independent
// prefix) and dominance pruning (a dep whose finish became a barrier on
// another dep's path is ≤ that dep almost surely, given non-negative
// latencies, and drops out of the max).

// MomentScratch is the reusable state of one moment-propagation pass.
// The zero value is ready to use; buffers grow on first use and are
// reused afterwards, so steady-state passes allocate nothing. A scratch
// is owned by one goroutine at a time.
type MomentScratch struct {
	// Per-node: the barrier decomposition and each node's latency moment.
	barID    []int32
	promoted []int32 // barrier made from this node's finish, -1 if none
	rel      []stats.Moment
	lat      []stats.Moment
	// The barrier tree. barAbs is the absolute moment (sum of deltas from
	// the root), barStamp the path-marking generation used by dominance
	// pruning. Barrier 0 is time zero.
	barParent []int32
	barAbs    []stats.Moment
	barDepth  []int32
	barStamp  []int32
	nBar      int
	gen       int32
	// items is the max-over-deps grouping scratch; prev* memoize the last
	// fork barrier so consecutive siblings with identical dep ranges share
	// their start barrier (which is what keeps a later max over those
	// siblings from double-counting the fork variance).
	items          []stats.Moment
	prevLo, prevHi int32
	prevBar        int32
	n              int
}

// reset sizes the scratch for an n-node program and clears the pass
// state. The barrier arrays hold at most 2n+1 entries: one root, at most
// one promotion per node, at most one fork barrier per node. All int32
// columns share one backing array and all moment columns another; both
// grow geometrically, so a sequence of ever-larger programs regrows the
// scratch only logarithmically often.
//
//rbvet:noalloc
func (sc *MomentScratch) reset(n int) {
	if c := cap(sc.barID); c < n {
		c = max(n, 2*c)
		b := 2*c + 1
		//rbvet:ignore noalloc — cold path: runs once per geometric growth step; steady-state passes reuse the buffers
		ints := make([]int32, 2*c+3*b)
		//rbvet:ignore noalloc — cold path (see above)
		moms := make([]stats.Moment, 3*c+b)
		sc.barID, ints = ints[:c:c], ints[c:]
		sc.promoted, ints = ints[:c:c], ints[c:]
		sc.barParent, ints = ints[:b:b], ints[b:]
		sc.barDepth, ints = ints[:b:b], ints[b:]
		sc.barStamp = ints[:b:b]
		sc.rel, moms = moms[:c:c], moms[c:]
		sc.lat, moms = moms[:c:c], moms[c:]
		sc.barAbs, moms = moms[:b:b], moms[b:]
		sc.items = moms[:0:c]
	}
	sc.barID = sc.barID[:n]
	sc.promoted = sc.promoted[:n]
	sc.rel = sc.rel[:n]
	sc.lat = sc.lat[:n]
	sc.n = n
	for i := range sc.promoted {
		sc.promoted[i] = -1
	}
	sc.barParent[0] = -1
	sc.barAbs[0] = stats.Moment{}
	sc.barDepth[0] = 0
	sc.barStamp[0] = 0
	sc.nBar = 1
	sc.prevBar = -1
}

// newBarrier appends a barrier with the given parent and independent
// delta and returns its id.
func (sc *MomentScratch) newBarrier(parent int32, delta stats.Moment) int32 {
	b := int32(sc.nBar)
	sc.barParent[b] = parent
	sc.barAbs[b] = sc.barAbs[parent].AddIndep(delta)
	sc.barDepth[b] = sc.barDepth[parent] + 1
	sc.barStamp[b] = 0
	sc.nBar++
	return b
}

// Finish returns node i's absolute finish-time moment after a successful
// MomentsInto pass.
func (sc *MomentScratch) Finish(i int) stats.Moment {
	return sc.barAbs[sc.barID[i]].AddIndep(sc.rel[i])
}

// Latency returns node i's latency moment after a successful pass.
func (sc *MomentScratch) Latency(i int) stats.Moment { return sc.lat[i] }

// SupportsMoments reports whether every latency opcode in the program has
// finite analytic moments. It is a pure function of the program.
//
//rbvet:pure
func (p *Program) SupportsMoments() bool {
	for i := range p.lat {
		if _, ok := p.lat[i].Moment(); !ok {
			return false
		}
	}
	return true
}

// MomentsInto propagates finish-time moments through the compiled graph
// in one linear pass — the analytic counterpart of SampleInto, with no
// sampling and no RNG. It fills sc (per-node finish and latency moments,
// readable via the accessors) and returns the makespan moment, taken over
// the program's sinks.
//
// It reports ok=false — leaving the caller to fall back to Monte-Carlo —
// when a latency lacks finite moments (Pareto alpha <= 2, opaque dists
// without Var) or when pruning a dominated dependency would require a
// non-negativity proof the latencies don't provide.
//
// Deterministic programs propagate exactly. Stochastic maxima are
// moment-matched: equal-moment sibling groups via the iid quantile
// sketch (stats.MaxIIDMoment), distinct groups via Clark's pairwise rule
// (stats.MaxIndep), with equal-moment deps treated as iid — which they
// are for the fork-join stage DAGs the simulator builds, where siblings
// are literally iid draws.
//
//rbvet:pure
//rbvet:noalloc
func (p *Program) MomentsInto(sc *MomentScratch) (stats.Moment, bool) {
	sc.reset(p.n)
	allNonneg := true
	for i := range p.lat {
		m, ok := p.lat[i].Moment()
		if !ok {
			return stats.Moment{}, false
		}
		sc.lat[i] = m
		allNonneg = allNonneg && p.lat[i].NonNeg()
	}

	for i := 0; i < p.n; i++ {
		lo, hi := p.depLo[i], p.depHi[i]
		switch hi - lo {
		case 0:
			// Source: starts at time zero.
			sc.barID[i] = 0
			sc.rel[i] = sc.lat[i]
		case 1:
			d := p.deps[lo]
			if p.outdeg[d] == 1 {
				// Sole consumer: extend the chain in place. Sums of
				// independent latencies propagate exactly.
				sc.barID[i] = sc.barID[d]
				sc.rel[i] = sc.rel[d].AddIndep(sc.lat[i])
			} else {
				// Shared dependency: its finish becomes a barrier so every
				// consumer builds on the same random variable.
				b := sc.promoted[d]
				if b < 0 {
					b = sc.newBarrier(sc.barID[d], sc.rel[d])
					sc.promoted[d] = b
				}
				sc.barID[i] = b
				sc.rel[i] = sc.lat[i]
			}
		default:
			// Fork join: start at the max over dep finishes. Consecutive
			// siblings with identical dep lists (a shared range, or equal
			// contents) share the fork barrier.
			var b int32
			if sc.prevBar >= 0 && (lo == sc.prevLo && hi == sc.prevHi ||
				eqDeps(p.deps[lo:hi], p.deps[sc.prevLo:sc.prevHi])) {
				b = sc.prevBar
			} else {
				a, m, ok := sc.maxOverDeps(p, lo, hi, allNonneg)
				if !ok {
					return stats.Moment{}, false
				}
				b = sc.newBarrier(a, m)
				sc.prevLo, sc.prevHi, sc.prevBar = lo, hi, b
			}
			sc.barID[i] = b
			sc.rel[i] = sc.lat[i]
		}
	}

	// Makespan over sinks. Segment programs close on a single SYNC sink,
	// making this exact; multiple sinks combine via Clark.
	mk := stats.Moment{}
	first := true
	for i := 0; i < p.n; i++ {
		if p.outdeg[i] != 0 {
			continue
		}
		f := sc.Finish(i)
		if first {
			mk, first = f, false
		} else {
			mk = stats.MaxIndep(mk, f)
		}
	}
	return mk, true
}

// eqDeps reports whether two dep lists list the same nodes in order.
func eqDeps(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// maxOverDeps computes the moment of max over the finish times of the
// dep range [lo, hi), returned relative to the deps' lowest common
// ancestor barrier a (the maximal shared prefix, so no shared variance is
// double-counted). Deps whose finishes are barriers on another dep's
// path are dominated (F(descendant) >= F(ancestor) for non-negative
// latencies) and pruned; without a non-negativity proof a required prune
// reports ok=false instead of risking a wrong moment.
func (sc *MomentScratch) maxOverDeps(p *Program, lo, hi int32, allNonneg bool) (int32, stats.Moment, bool) {
	deps := p.deps[lo:hi]
	a := sc.barID[deps[0]]
	same := true
	for _, d := range deps[1:] {
		if sc.barID[d] != a {
			same = false
			break
		}
	}
	items := sc.items[:0]
	if same {
		// Same-barrier siblings: rels are mutually independent by
		// construction (shared history would have forced a promotion).
		for _, d := range deps {
			items = append(items, sc.rel[d])
		}
	} else {
		a = sc.lca(deps)
		// Mark every barrier strictly below a on any dep's path; a dep
		// promoted onto a marked barrier is an ancestor of another dep.
		sc.gen++
		for _, d := range deps {
			for b := sc.barID[d]; b != a; b = sc.barParent[b] {
				sc.barStamp[b] = sc.gen
			}
		}
		for _, d := range deps {
			if pb := sc.promoted[d]; pb >= 0 && sc.barStamp[pb] == sc.gen {
				if !allNonneg {
					return 0, stats.Moment{}, false
				}
				continue // dominated
			}
			lift := sc.barAbs[sc.barID[d]].SubIndepPrefix(sc.barAbs[a]).AddIndep(sc.rel[d])
			items = append(items, lift)
		}
	}
	sc.items = items

	// Group bit-identical moments as iid (identical sibling structure
	// yields identical arithmetic), then Clark across distinct groups.
	res := stats.Moment{}
	first := true
	for j := 0; j < len(items); j++ {
		m := items[j]
		if math.IsNaN(m.Mean) {
			continue // consumed by an earlier group
		}
		cnt := 1
		for k := j + 1; k < len(items); k++ {
			if items[k] == m {
				items[k].Mean = math.NaN()
				cnt++
			}
		}
		g := stats.MaxIIDMoment(m, cnt)
		if first {
			res, first = g, false
		} else {
			res = stats.MaxIndep(res, g)
		}
	}
	return a, res, true
}

// lca returns the lowest common ancestor of the deps' barriers in the
// barrier tree, folding pairwise by depth.
func (sc *MomentScratch) lca(deps []int32) int32 {
	a := sc.barID[deps[0]]
	for _, d := range deps[1:] {
		b := sc.barID[d]
		for a != b {
			if sc.barDepth[a] >= sc.barDepth[b] {
				a = sc.barParent[a]
			} else {
				b = sc.barParent[b]
			}
		}
	}
	return a
}
