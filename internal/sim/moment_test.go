package sim

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// The first half of this file is the analytic counterpart of SampleInto:
// one linear pass over a compiled Program that propagates (mean, variance) pairs instead
// of Monte-Carlo draws. The pass is exact for deterministic latencies and
// moment-matched (Clark maxima + quantile-sketch gang barriers)
// otherwise; the tests below check it against Monte-Carlo sampling to
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
func (sc *MomentScratch) reset(n int) {
	if c := cap(sc.barID); c < n {
		c = max(n, 2*c)
		b := 2*c + 1
		ints := make([]int32, 2*c+3*b)
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

// SupportsMoments reports whether every latency in the program has
// finite analytic moments. It is a pure function of the program.
//
//rbvet:pure
func (p *Program) SupportsMoments() bool {
	for i := range p.lat {
		if _, ok := stats.DistMoment(p.lat[i]); !ok {
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
// It reports ok=false when a latency lacks finite moments (Pareto
// alpha <= 2, an opaque dist with an infinite variance) or when pruning
// a dominated dependency would require a non-negativity proof the
// latencies don't provide.
//
// Deterministic programs propagate exactly. Stochastic maxima are
// moment-matched: equal-moment sibling groups via the iid quantile
// sketch (stats.MaxIIDMoment), distinct groups via Clark's pairwise rule
// (stats.MaxIndep), with equal-moment deps treated as iid — which they
// are for the fork-join stage DAGs the simulator builds, where siblings
// are literally iid draws.
//
//rbvet:pure
func (p *Program) MomentsInto(sc *MomentScratch) (stats.Moment, bool) {
	sc.reset(p.n)
	allNonneg := true
	for i := range p.lat {
		m, ok := stats.DistMoment(p.lat[i])
		if !ok {
			return stats.Moment{}, false
		}
		sc.lat[i] = m
		allNonneg = allNonneg && latNonNeg(p.lat[i])
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

// gangGraph builds the gang-mode stage shape the stage kernel simulates:
// optional SCALE → inits iid INIT nodes → trials gang TRAIN nodes each
// depending on every INIT → closing SYNC.
func gangGraph(inits, trials int, initD, train stats.Dist) *Graph {
	g := newGraph()
	var stageDeps []int
	if inits > 0 {
		scale := g.AddNode(Scale, 0, -1, 0, stats.Deterministic{Value: 5})
		for k := 0; k < inits; k++ {
			init := g.AddNode(InitInstance, 0, -1, 0, initD, scale.ID)
			stageDeps = append(stageDeps, init.ID)
		}
	}
	var trains []int
	for tr := 0; tr < trials; tr++ {
		n := g.AddNode(Train, 0, tr, 2, train, stageDeps...)
		trains = append(trains, n.ID)
	}
	g.AddNode(Sync, 0, -1, 0, stats.Deterministic{Value: 0}, trains...)
	return g
}

// serialGraph builds the serial-mode stage shape: trials TRAIN nodes
// round-robined over slots chains, chained within each slot, SYNC over
// every train (not just the chain tails — the dominance filter must
// prune the mid-chain nodes).
func serialGraph(inits, trials, slots int, initD, train stats.Dist) *Graph {
	g := newGraph()
	var stageDeps []int
	if inits > 0 {
		scale := g.AddNode(Scale, 0, -1, 0, stats.Deterministic{Value: 5})
		for k := 0; k < inits; k++ {
			init := g.AddNode(InitInstance, 0, -1, 0, initD, scale.ID)
			stageDeps = append(stageDeps, init.ID)
		}
	}
	slotTail := make([]int, slots)
	for k := range slotTail {
		slotTail[k] = -1
	}
	var trains []int
	for tr := 0; tr < trials; tr++ {
		slot := tr % slots
		deps := stageDeps
		if slotTail[slot] >= 0 {
			deps = []int{slotTail[slot]}
		}
		n := g.AddNode(Train, 0, tr, 1, train, deps...)
		slotTail[slot] = n.ID
		trains = append(trains, n.ID)
	}
	g.AddNode(Sync, 0, -1, 0, stats.Deterministic{Value: 0}, trains...)
	return g
}

// sampleMakespan estimates the program's makespan moment plus the finish
// moment of one tracked node by Monte-Carlo.
func sampleMakespan(p *Program, n int, track int) (mk, fin stats.Moment) {
	r := stats.NewRNG(99)
	buf := make([]Timing, p.Len())
	var s1, s2, f1, f2 float64
	for k := 0; k < n; k++ {
		timings, m := p.SampleInto(r, buf)
		s1 += m
		s2 += m * m
		f := timings[track].Finish
		f1 += f
		f2 += f * f
	}
	nn := float64(n)
	mk = stats.Moment{Mean: s1 / nn, Var: s2/nn - (s1/nn)*(s1/nn)}
	fin = stats.Moment{Mean: f1 / nn, Var: f2/nn - (f1/nn)*(f1/nn)}
	return mk, fin
}

func checkMoments(t *testing.T, name string, got, want stats.Moment, meanTol, varTol float64) {
	t.Helper()
	if math.Abs(got.Mean-want.Mean) > meanTol*math.Abs(want.Mean)+1e-9 {
		t.Errorf("%s: mean %v, sampled %v", name, got.Mean, want.Mean)
	}
	if math.Abs(got.Var-want.Var) > varTol*want.Var+0.05 {
		t.Errorf("%s: var %v, sampled %v", name, got.Var, want.Var)
	}
}

// TestMomentsDeterministicExact: with deterministic latencies the pass is
// exact — every finish time and the makespan equal the single sampled
// schedule, bit for bit modulo float addition order.
func TestMomentsDeterministicExact(t *testing.T) {
	for _, g := range []*Graph{
		gangGraph(4, 6, stats.Deterministic{Value: 15}, stats.Deterministic{Value: 30}),
		serialGraph(2, 11, 3, stats.Deterministic{Value: 15}, stats.Deterministic{Value: 30}),
		serialGraph(0, 7, 2, nil, stats.Deterministic{Value: 12}),
	} {
		p := Compile(g)
		var sc MomentScratch
		mk, ok := p.MomentsInto(&sc)
		if !ok {
			t.Fatal("deterministic program unsupported")
		}
		timings, want := p.Sample(stats.NewRNG(1))
		if mk.Var != 0 || math.Abs(mk.Mean-want) > 1e-9 {
			t.Errorf("makespan %+v, want exactly %v", mk, want)
		}
		for i := 0; i < p.Len(); i++ {
			f := sc.Finish(i)
			if f.Var != 0 || math.Abs(f.Mean-timings[i].Finish) > 1e-9 {
				t.Errorf("node %d finish %+v, want %v", i, f, timings[i].Finish)
			}
		}
	}
}

// TestMomentsGangAgainstMC: gang-mode stages (iid init max barrier, iid
// train gang max) match Monte-Carlo to tight tolerance across gang sizes.
func TestMomentsGangAgainstMC(t *testing.T) {
	cases := []struct{ inits, trials int }{
		{0, 1}, {0, 8}, {1, 4}, {4, 1}, {4, 16}, {16, 64},
	}
	for _, c := range cases {
		p := Compile(gangGraph(c.inits, c.trials, stats.Normal{Mu: 15, Sigma: 2}, stats.Normal{Mu: 120, Sigma: 8}))
		var sc MomentScratch
		mk, ok := p.MomentsInto(&sc)
		if !ok {
			t.Fatalf("inits=%d trials=%d: unsupported", c.inits, c.trials)
		}
		want, _ := sampleMakespan(p, 200000, p.Len()-1)
		checkMoments(t, "gang", mk, want, 0.01, 0.3)
	}
}

// TestMomentsSerialAgainstMC: serial-mode stages (uneven chains, SYNC
// over every train) match Monte-Carlo — this exercises promotion,
// lifting to the common ancestor, and dominance pruning.
func TestMomentsSerialAgainstMC(t *testing.T) {
	cases := []struct{ inits, trials, slots int }{
		{0, 6, 2}, {2, 6, 2}, {2, 7, 3}, {1, 13, 4}, {0, 13, 4}, {3, 3, 3},
	}
	for _, c := range cases {
		p := Compile(serialGraph(c.inits, c.trials, c.slots, stats.Normal{Mu: 15, Sigma: 2}, stats.Normal{Mu: 60, Sigma: 5}))
		var sc MomentScratch
		mk, ok := p.MomentsInto(&sc)
		if !ok {
			t.Fatalf("%+v: unsupported", c)
		}
		want, _ := sampleMakespan(p, 200000, p.Len()-1)
		checkMoments(t, "serial", mk, want, 0.01, 0.3)
	}
}

// TestMomentsMixedDists: every supported latency kind propagates to
// Monte-Carlo tolerance, a repeated sum included.
func TestMomentsMixedDists(t *testing.T) {
	p := Compile(momentMixedGraph())
	var sc MomentScratch
	mk, ok := p.MomentsInto(&sc)
	if !ok {
		t.Fatal("mixed program unsupported")
	}
	want, _ := sampleMakespan(p, 400000, p.Len()-1)
	checkMoments(t, "mixed", mk, want, 0.02, 0.35)
}

// momentMixedGraph builds a fork-join stage whose latencies cover every
// kind with finite moments, a repeated sum included.
func momentMixedGraph() *Graph {
	g := newGraph()
	a := g.AddNode(Scale, 0, -1, 0, stats.Uniform{Lo: 2, Hi: 8})
	b := g.AddNode(InitInstance, 0, -1, 0, stats.Exponential{MeanValue: 4}, a.ID)
	c := g.AddNode(InitInstance, 0, -1, 0, stats.LogNormal{Mu: 1.5, Sigma: 0.3}, a.ID)
	d := g.AddNode(Train, 0, 0, 1, repeat{d: stats.Normal{Mu: 3, Sigma: 0.4}, n: 20}, b.ID, c.ID)
	e := g.AddNode(Train, 0, 1, 1, stats.Pareto{Scale: 5, Alpha: 4}, b.ID, c.ID)
	f := g.AddNode(Train, 0, 2, 1, stats.Uniform{Lo: 50, Hi: 56}, b.ID, c.ID)
	g.AddNode(Sync, 0, -1, 0, stats.Deterministic{Value: 0}, d.ID, e.ID, f.ID)
	return g
}

// TestMomentsTrackedNodes: the accessors sim relies on — the SCALE
// node's finish and per-node latency moments — agree with Monte-Carlo.
func TestMomentsTrackedNodes(t *testing.T) {
	p := Compile(gangGraph(4, 8, stats.Normal{Mu: 15, Sigma: 2}, stats.Normal{Mu: 120, Sigma: 8}))
	var sc MomentScratch
	if _, ok := p.MomentsInto(&sc); !ok {
		t.Fatal("unsupported")
	}
	// Node 0 is SCALE: deterministic queue delay of 5.
	if f := sc.Finish(0); f != (stats.Moment{Mean: 5}) {
		t.Errorf("scale finish %+v", f)
	}
	// Train latency moments are the train dist's moments.
	if l := sc.Latency(5); l.Mean != 120 || l.Var != 64 {
		t.Errorf("train latency %+v", l)
	}
	// A train node's sampled finish matches its analytic finish.
	_, fin := sampleMakespan(p, 200000, 5)
	checkMoments(t, "train finish", sc.Finish(5), fin, 0.01, 0.3)
}

// TestMomentsUnsupported: infinite-variance latencies report ok=false
// rather than wrong numbers, and SupportsMoments agrees.
func TestMomentsUnsupported(t *testing.T) {
	g := newGraph()
	g.AddNode(Train, 0, 0, 1, stats.Pareto{Scale: 1, Alpha: 1.5})
	p := Compile(g)
	if p.SupportsMoments() {
		t.Error("SupportsMoments true for infinite-variance Pareto")
	}
	var sc MomentScratch
	if _, ok := p.MomentsInto(&sc); ok {
		t.Error("MomentsInto ok for infinite-variance Pareto")
	}
	if !Compile(gangGraph(2, 2, stats.Normal{Mu: 1, Sigma: 0.1}, stats.Normal{Mu: 1, Sigma: 0.1})).SupportsMoments() {
		t.Error("SupportsMoments false for a supported program")
	}
}

// TestMomentsZeroAlloc pins the steady-state pass at zero heap
// allocations: the batched frontier evaluator runs it per candidate.
func TestMomentsZeroAlloc(t *testing.T) {
	p := Compile(serialGraph(2, 13, 4, stats.Normal{Mu: 15, Sigma: 2}, stats.Normal{Mu: 60, Sigma: 5}))
	var sc MomentScratch
	if _, ok := p.MomentsInto(&sc); !ok { // warm the scratch
		t.Fatal("unsupported")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := p.MomentsInto(&sc); !ok {
			t.Fatal("unsupported")
		}
	})
	if allocs != 0 {
		t.Fatalf("MomentsInto allocates %v per run, want 0", allocs)
	}
}
