package dag

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// gangGraph builds the gang-mode stage shape buildSegment produces:
// optional SCALE → inits iid INIT nodes → trials gang TRAIN nodes each
// depending on every INIT → closing SYNC.
func gangGraph(inits, trials int, initD, train stats.Dist) *Graph {
	g := New()
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
	g := New()
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

// TestMomentsMixedDists: every supported latency opcode propagates to
// Monte-Carlo tolerance, including opRepeat and opaque Varer dists.
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
// opcode with finite moments, including opRepeat and an opaque Varer.
func momentMixedGraph() *Graph {
	g := New()
	a := g.AddNode(Scale, 0, -1, 0, stats.Uniform{Lo: 2, Hi: 8})
	b := g.AddNode(InitInstance, 0, -1, 0, stats.Exponential{MeanValue: 4}, a.ID)
	c := g.AddNode(InitInstance, 0, -1, 0, stats.LogNormal{Mu: 1.5, Sigma: 0.3}, a.ID)
	d := g.AddNode(Train, 0, 0, 1, stats.Repeat{D: stats.Normal{Mu: 3, Sigma: 0.4}, N: 20}, b.ID, c.ID)
	e := g.AddNode(Train, 0, 1, 1, stats.Pareto{Scale: 5, Alpha: 4}, b.ID, c.ID)
	f := g.AddNode(Train, 0, 2, 1, stats.Shifted{D: stats.Uniform{Lo: 0, Hi: 6}, Offset: 50}, b.ID, c.ID)
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

// TestMomentsUnsupported: infinite-variance and Varer-less latencies
// report ok=false rather than wrong numbers, and SupportsMoments agrees.
func TestMomentsUnsupported(t *testing.T) {
	g := New()
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
