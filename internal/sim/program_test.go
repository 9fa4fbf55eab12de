package sim

import (
	"fmt"
	"testing"

	"repro/internal/stats"
)

// Program is a DAG in flat structure-of-arrays form for repeated
// Monte-Carlo sampling: dependency edges in CSR layout beside each
// node's latency distribution. Sampling a Program visits nodes in one
// linear pass with no per-node pointer chasing. It is the general
// reference the simulator's closed-form stage kernel is checked against
// bit for bit. Programs are built node by node (NewProgram, Add) or
// compiled from a reference Graph (Compile, CompileRange). Once built, a
// Program is immutable and safe for concurrent use by any number of
// goroutines (each with its own RNG and scratch buffer).
type Program struct {
	// deps[depLo[i]:depHi[i]] lists node i's dependencies (local node
	// indices). Consecutive nodes with identical dependency lists share
	// one range, so a gang of TRAINs over the same INITs stores those
	// edges once and SampleInto computes their common start once.
	depLo, depHi []int32
	deps         []int32
	lat          []stats.Dist
	// outdeg[i] is node i's successor count within the program — the
	// moment pass promotes multi-consumer finishes to shared barriers and
	// takes the makespan over the outdeg-zero sinks.
	outdeg []int32
	n      int
}

// NewProgram returns an empty program presized for nodes nodes and edges
// stored dependency edges (a run of consecutive nodes with one shared
// dependency list stores it once). One backing array serves every int32
// column and the edge list, and one the latencies. Exact counts keep a
// build at a handful of allocations; a program still grows past either
// hint correctly (only the overflowing column is reallocated).
func NewProgram(nodes, edges int) *Program {
	back := make([]int32, 3*nodes+edges)
	take := func(k int) []int32 {
		s := back[:k:k]
		back = back[k:]
		return s[:0]
	}
	return &Program{
		depLo:  take(nodes),
		depHi:  take(nodes),
		outdeg: take(nodes),
		deps:   take(edges),
		lat:    make([]stats.Dist, 0, nodes),
	}
}

// Add appends a node with latency lat and the given dependencies (local
// indices of earlier nodes) and returns its index. A dependency list
// equal to the previous node's shares that node's edge range. It panics
// if a dependency refers to a node not yet added, which would create a
// cycle or a dangling edge.
func (p *Program) Add(lat stats.Dist, deps ...int32) int32 {
	id := int32(p.n)
	for _, d := range deps {
		if d < 0 || d >= id {
			panic(fmt.Sprintf("dag: node %d depends on invalid node %d", id, d))
		}
		p.outdeg[d]++
	}
	lo, hi := p.prevRange()
	if !eqDeps(deps, p.deps[lo:hi]) {
		lo = int32(len(p.deps))
		p.deps = append(p.deps, deps...)
		hi = int32(len(p.deps))
	}
	return p.push(lat, lo, hi)
}

// AddSpan appends a node with latency lat that depends on the
// consecutive nodes lo..hi-1 and returns its index — Add without a
// dependency slice, for the fork-join shapes whose dependency lists are
// runs of IDs. A span equal to the previous node's dependency list shares
// its edge range. It panics unless 0 <= lo <= hi <= the new node's index.
func (p *Program) AddSpan(lat stats.Dist, lo, hi int32) int32 {
	id := int32(p.n)
	if lo < 0 || hi < lo || hi > id {
		panic(fmt.Sprintf("dag: node %d depends on invalid span [%d, %d)", id, lo, hi))
	}
	for d := lo; d < hi; d++ {
		p.outdeg[d]++
	}
	plo, phi := p.prevRange()
	if phi-plo != hi-lo || !isSpan(p.deps[plo:phi], lo) {
		plo = int32(len(p.deps))
		for d := lo; d < hi; d++ {
			p.deps = append(p.deps, d)
		}
		phi = int32(len(p.deps))
	}
	return p.push(lat, plo, phi)
}

// prevRange returns the last node's dependency range, or an empty range
// when the program has no nodes.
func (p *Program) prevRange() (lo, hi int32) {
	if p.n == 0 {
		return 0, 0
	}
	return p.depLo[p.n-1], p.depHi[p.n-1]
}

// isSpan reports whether deps lists lo, lo+1, … in order.
func isSpan(deps []int32, lo int32) bool {
	for k, d := range deps {
		if d != lo+int32(k) {
			return false
		}
	}
	return true
}

// push appends node p.n with latency lat and dependency range [lo, hi).
func (p *Program) push(lat stats.Dist, lo, hi int32) int32 {
	id := int32(p.n)
	p.depLo = append(p.depLo, lo)
	p.depHi = append(p.depHi, hi)
	p.lat = append(p.lat, lat)
	p.outdeg = append(p.outdeg, 0)
	p.n++
	return id
}

// Compile translates a whole graph into a Program. Sampling the Program
// is bit-identical to Graph.SampleInto given the same generator: it
// draws each node's latency in the same order.
func Compile(g *Graph) *Program { return CompileRange(g, 0, g.Len()) }

// CompileRange compiles the node slice [lo, hi) of a graph into a
// standalone Program. Dependencies on nodes before lo are dropped: the
// compiled sub-program treats them as an implicit time-zero source, so a
// sub-DAG whose only external edges come from a single barrier node
// samples the same schedule as the full graph, shifted to start at zero.
// It panics if the range is out of bounds.
func CompileRange(g *Graph, lo, hi int) *Program {
	if lo < 0 || hi < lo || hi > g.Len() {
		panic(fmt.Sprintf("dag: CompileRange [%d, %d) out of bounds for %d nodes", lo, hi, g.Len()))
	}
	edges := 0
	for _, n := range g.nodes[lo:hi] {
		for _, d := range n.deps {
			if d >= lo {
				edges++
			}
		}
	}
	p := NewProgram(hi-lo, edges)
	var local []int32
	for _, n := range g.nodes[lo:hi] {
		local = local[:0]
		for _, d := range n.deps {
			if d >= lo {
				local = append(local, int32(d-lo))
			}
		}
		p.Add(n.Latency, local...)
	}
	return p
}

// Len returns the compiled node count.
func (p *Program) Len() int { return p.n }

// Sample draws one execution of the compiled graph, allocating a fresh
// timings slice. See SampleInto.
func (p *Program) Sample(r *stats.RNG) ([]Timing, float64) {
	return p.SampleInto(r, nil)
}

// SampleInto draws one execution of the compiled graph into buf (reused
// when it has sufficient capacity): each node starts at the max finish
// time of its compiled dependencies — computed once per shared
// dependency range, since a node sharing the previous node's range
// starts when it did — and its latency is sampled from the node's
// distribution. It returns the per-node timings and the makespan. For a
// full-graph Program the result is bit-identical to Graph.SampleInto
// with the same generator.
//
//rbvet:pure
func (p *Program) SampleInto(r *stats.RNG, buf []Timing) ([]Timing, float64) {
	var timings []Timing
	if cap(buf) >= p.n {
		timings = buf[:p.n]
	} else {
		timings = make([]Timing, p.n)
	}
	var makespan, start float64
	prevLo, prevHi := int32(-1), int32(-1)
	for i := 0; i < p.n; i++ {
		if lo, hi := p.depLo[i], p.depHi[i]; lo != prevLo || hi != prevHi {
			start = 0
			for _, d := range p.deps[lo:hi] {
				if f := timings[d].Finish; f > start {
					start = f
				}
			}
			prevLo, prevHi = lo, hi
		}
		f := start + p.lat[i].Sample(r)
		timings[i] = Timing{Start: start, Finish: f}
		if f > makespan {
			makespan = f
		}
	}
	return timings, makespan
}

// opaque is a distribution type stats does not know: it has moments
// only when they are finite, and no proof of non-negativity.
type opaque struct{ d stats.Dist }

func (o opaque) Sample(r *stats.RNG) float64 { return o.d.Sample(r) }
func (o opaque) Mean() float64               { return o.d.Mean() }
func (o opaque) Var() float64                { return o.d.Var() }
func (o opaque) String() string              { return "opaque(" + o.d.String() + ")" }

// mixedGraph builds a DAG exercising every latency kind: all built-in
// distribution types, a repeated sum, and an opaque type, over a
// diamond-and-chain dependency structure.
func mixedGraph() *Graph {
	g := newGraph()
	a := g.AddNode(Scale, 0, -1, 0, stats.Exponential{MeanValue: 5})
	b := g.AddNode(InitInstance, 0, -1, 0, stats.Normal{Mu: 15, Sigma: 3}, a.ID)
	c := g.AddNode(InitInstance, 0, -1, 0, stats.LogNormal{Mu: 2, Sigma: 0.5}, a.ID)
	d := g.AddNode(Train, 0, 0, 2, stats.Uniform{Lo: 1, Hi: 4}, b.ID, c.ID)
	e := g.AddNode(Train, 0, 1, 2, stats.Pareto{Scale: 2, Alpha: 2.5}, b.ID, c.ID)
	f := g.AddNode(Train, 0, 2, 2, repeat{d: stats.Exponential{MeanValue: 0.5}, n: 7}, b.ID, c.ID)
	h := g.AddNode(Train, 0, 3, 2, opaque{stats.Normal{Mu: 4, Sigma: 1}}, d.ID)
	i := g.AddNode(Sync, 0, -1, 0, stats.Deterministic{Value: 0}, d.ID, e.ID, f.ID, h.ID)
	g.AddNode(Train, 1, 4, 4, stats.Normal{Mu: 30, Sigma: 6}, i.ID)
	return g
}

// TestProgramMatchesGraphSample: the compiled program samples
// bit-identically to the graph for every latency kind, across many draws
// from a shared stream family.
func TestProgramMatchesGraphSample(t *testing.T) {
	g := mixedGraph()
	p := Compile(g)
	if p.Len() != g.Len() {
		t.Fatalf("program has %d nodes, graph %d", p.Len(), g.Len())
	}
	root := stats.NewRNG(42)
	var gbuf, pbuf []Timing
	for k := 0; k < 200; k++ {
		var gm, pm float64
		gbuf, gm = g.SampleInto(root.Stream(uint64(k)), gbuf)
		pbuf, pm = p.SampleInto(root.Stream(uint64(k)), pbuf)
		if gm != pm {
			t.Fatalf("draw %d: makespan %v != graph %v", k, pm, gm)
		}
		for i := range gbuf {
			if gbuf[i] != pbuf[i] {
				t.Fatalf("draw %d node %d: timing %+v != graph %+v", k, i, pbuf[i], gbuf[i])
			}
		}
	}
}

// addGraph builds g's program node by node with Add, starting from zero
// size hints so every column grows past its presized capacity.
func addGraph(g *Graph) *Program {
	p := NewProgram(0, 0)
	for _, n := range g.Nodes() {
		var deps []int32
		for _, d := range n.Deps() {
			deps = append(deps, int32(d))
		}
		if id := p.Add(n.Latency, deps...); int(id) != n.ID {
			panic("Add returned a non-sequential index")
		}
	}
	return p
}

// spanGraph builds g's program with AddSpan wherever a node's dependency
// list is a run of consecutive IDs (every node of the stage shapes the
// simulator emits) and with Add elsewhere, from zero size hints.
func spanGraph(g *Graph) *Program {
	p := NewProgram(0, 0)
	for _, n := range g.Nodes() {
		deps := n.Deps()
		span := true
		for k, d := range deps {
			span = span && d == deps[0]+k
		}
		var id int32
		switch {
		case len(deps) == 0:
			id = p.AddSpan(n.Latency, 0, 0)
		case span:
			id = p.AddSpan(n.Latency, int32(deps[0]), int32(deps[0]+len(deps)))
		default:
			local := make([]int32, len(deps))
			for k, d := range deps {
				local[k] = int32(d)
			}
			id = p.Add(n.Latency, local...)
		}
		if int(id) != n.ID {
			panic("AddSpan returned a non-sequential index")
		}
	}
	return p
}

// TestAddMatchesCompile: programs built node by node with Add or with
// shared AddSpan ranges sample and propagate moments bit-identically to
// Compile of the same graph, and sample bit-identically to the graph
// itself, for every latency kind (repeated and opaque ones included) and for the
// gang and serial stage shapes the simulator emits.
func TestAddMatchesCompile(t *testing.T) {
	graphs := map[string]*Graph{
		"mixed":        mixedGraph(),
		"momentMixed":  momentMixedGraph(),
		"gang":         gangGraph(4, 6, stats.Normal{Mu: 15, Sigma: 2}, stats.Normal{Mu: 120, Sigma: 8}),
		"gangNoScale":  gangGraph(0, 8, nil, stats.LogNormal{Mu: 4, Sigma: 0.2}),
		"serial":       serialGraph(2, 11, 3, stats.Normal{Mu: 15, Sigma: 2}, repeat{d: stats.Exponential{MeanValue: 2}, n: 5}),
		"serialNoInit": serialGraph(0, 7, 2, nil, stats.Uniform{Lo: 10, Hi: 14}),
	}
	for name, g := range graphs {
		want := Compile(g)
		for _, b := range []struct {
			how string
			got *Program
		}{{"Add", addGraph(g)}, {"AddSpan", spanGraph(g)}} {
			got := b.got
			if got.Len() != want.Len() {
				t.Fatalf("%s/%s: built %d nodes, Compile %d", name, b.how, got.Len(), want.Len())
			}
			root := stats.NewRNG(11)
			var wbuf, gbuf, rbuf []Timing
			for k := 0; k < 100; k++ {
				var wm, gm, rm float64
				wbuf, wm = want.SampleInto(root.Stream(uint64(k)), wbuf)
				gbuf, gm = got.SampleInto(root.Stream(uint64(k)), gbuf)
				rbuf, rm = g.SampleInto(root.Stream(uint64(k)), rbuf)
				if gm != wm || gm != rm {
					t.Fatalf("%s/%s draw %d: makespan %v, Compile %v, graph %v", name, b.how, k, gm, wm, rm)
				}
				for i := range wbuf {
					if gbuf[i] != wbuf[i] || gbuf[i] != rbuf[i] {
						t.Fatalf("%s/%s draw %d node %d: timing %+v, Compile %+v, graph %+v", name, b.how, k, i, gbuf[i], wbuf[i], rbuf[i])
					}
				}
			}
			var wsc, gsc MomentScratch
			wmk, wok := want.MomentsInto(&wsc)
			gmk, gok := got.MomentsInto(&gsc)
			if gok != wok || gmk != wmk {
				t.Fatalf("%s/%s: moments (%+v, %v), Compile (%+v, %v)", name, b.how, gmk, gok, wmk, wok)
			}
			if !wok {
				continue
			}
			for i := 0; i < want.Len(); i++ {
				if gsc.Finish(i) != wsc.Finish(i) || gsc.Latency(i) != wsc.Latency(i) {
					t.Fatalf("%s/%s node %d: finish %+v latency %+v, Compile finish %+v latency %+v",
						name, b.how, i, gsc.Finish(i), gsc.Latency(i), wsc.Finish(i), wsc.Latency(i))
				}
			}
		}
	}
}

// TestSharedRangesStoreEdgesOnce: consecutive nodes with one dependency
// list share a single edge range, so a gang stage stores its INIT edges
// once rather than once per TRAIN.
func TestSharedRangesStoreEdgesOnce(t *testing.T) {
	const inits, trials = 4, 6
	for how, p := range map[string]*Program{
		"Add":     addGraph(gangGraph(inits, trials, stats.Normal{Mu: 15, Sigma: 2}, stats.Deterministic{Value: 9})),
		"AddSpan": spanGraph(gangGraph(inits, trials, stats.Normal{Mu: 15, Sigma: 2}, stats.Deterministic{Value: 9})),
	} {
		// SCALE stores none, the INITs share one, the TRAINs share the
		// INIT span, SYNC lists every TRAIN.
		if want := 1 + inits + trials; len(p.deps) != want {
			t.Errorf("%s: gang stage stores %d edges, want %d", how, len(p.deps), want)
		}
	}
}

// TestProgramAddPanicsOnForwardDep: a self-dependency, a forward
// dependency or a negative index panics instead of building a cycle or a
// dangling edge.
func TestProgramAddPanicsOnForwardDep(t *testing.T) {
	for _, dep := range []int32{1, 2, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add with dependency %d on node 1 did not panic", dep)
				}
			}()
			p := NewProgram(2, 1)
			p.Add(stats.Deterministic{Value: 1})
			p.Add(stats.Deterministic{Value: 1}, dep)
		}()
	}
}

// TestProgramAddSpanPanicsOnInvalidSpan: a span reaching the new node
// itself or past it, starting below zero, or ending before it starts
// panics instead of building a cycle or a dangling edge.
func TestProgramAddSpanPanicsOnInvalidSpan(t *testing.T) {
	for _, sp := range [][2]int32{{1, 2}, {0, 3}, {-1, 1}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddSpan [%d, %d) on node 1 did not panic", sp[0], sp[1])
				}
			}()
			p := NewProgram(2, 1)
			p.AddSpan(stats.Deterministic{Value: 1}, 0, 0)
			p.AddSpan(stats.Deterministic{Value: 1}, sp[0], sp[1])
		}()
	}
}

// TestCompileRangeDropsExternalDeps: a sub-program whose only external
// edges come from a single barrier samples the same schedule as the full
// graph shifted to start at zero — with deterministic latencies, exactly.
func TestCompileRangeDropsExternalDeps(t *testing.T) {
	g := newGraph()
	a := g.AddNode(Train, 0, 0, 1, stats.Deterministic{Value: 3})
	s0 := g.AddNode(Sync, 0, -1, 0, stats.Deterministic{Value: 0}, a.ID)
	b := g.AddNode(Scale, 1, -1, 0, stats.Deterministic{Value: 2}, s0.ID)
	c := g.AddNode(Train, 1, 1, 1, stats.Deterministic{Value: 5}, b.ID, s0.ID)
	g.AddNode(Sync, 1, -1, 0, stats.Deterministic{Value: 0}, c.ID)

	sub := CompileRange(g, b.ID, g.Len())
	if sub.Len() != 3 {
		t.Fatalf("sub-program has %d nodes, want 3", sub.Len())
	}
	timings, makespan := sub.Sample(stats.NewRNG(1))
	if makespan != 7 { // scale 2 + train 5, zero-based
		t.Fatalf("sub makespan %v, want 7", makespan)
	}
	full, fm := g.Sample(stats.NewRNG(1))
	if fm != 10 {
		t.Fatalf("full makespan %v, want 10", fm)
	}
	base := full[s0.ID].Finish
	for i, ft := range full[b.ID:] {
		want := Timing{Start: ft.Start - base, Finish: ft.Finish - base}
		if timings[i] != want {
			t.Fatalf("sub node %d: %+v, want %+v", i, timings[i], want)
		}
	}
}

// TestCompileRangeBounds: out-of-range compiles panic rather than
// producing a silently wrong program.
func TestCompileRangeBounds(t *testing.T) {
	g := mixedGraph()
	for _, r := range [][2]int{{-1, 2}, {3, 2}, {0, g.Len() + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CompileRange(%d, %d) did not panic", r[0], r[1])
				}
			}()
			CompileRange(g, r[0], r[1])
		}()
	}
}

// TestProgramSampleZeroAlloc: with a warm scratch buffer, sampling the
// compiled program allocates nothing.
func TestProgramSampleZeroAlloc(t *testing.T) {
	p := Compile(mixedGraph())
	rng := stats.NewRNG(7)
	buf, _ := p.SampleInto(rng, nil)
	allocs := testing.AllocsPerRun(100, func() {
		buf, _ = p.SampleInto(rng, buf)
	})
	if allocs != 0 {
		t.Fatalf("Program.SampleInto allocates %v per draw, want 0", allocs)
	}
}

func BenchmarkProgramSample(b *testing.B) {
	p := Compile(mixedGraph())
	rng := stats.NewRNG(3)
	var buf []Timing
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = p.SampleInto(rng, buf)
	}
}
