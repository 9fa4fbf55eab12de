package dag

import (
	"fmt"

	"repro/internal/stats"
)

// Program is a DAG in flat structure-of-arrays form for repeated
// Monte-Carlo sampling: dependency edges in CSR layout and latency
// distributions compiled to stats.Lat opcodes. Sampling a Program visits
// nodes in one linear pass with no per-node pointer chasing and, for the
// built-in distribution types, no interface calls. It is the general
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
	lat          []stats.Lat
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
		lat:    make([]stats.Lat, 0, nodes),
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
	p.lat = append(p.lat, stats.CompileLat(lat))
	p.outdeg = append(p.outdeg, 0)
	p.n++
	return id
}

// Compile translates a whole graph into a Program. Sampling the Program
// is bit-identical to Graph.SampleInto given the same generator: opcodes
// reproduce each distribution's Sample arithmetic and RNG draw order
// exactly.
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
// compiled stats.Lat. It returns the per-node timings and the makespan.
// Compiled latencies consume RNG draws exactly as the distributions they
// encode, so for a full-graph Program the result is bit-identical to
// Graph.SampleInto with the same generator.
//
//rbvet:pure
//rbvet:noalloc
func (p *Program) SampleInto(r *stats.RNG, buf []Timing) ([]Timing, float64) {
	var timings []Timing
	if cap(buf) >= p.n {
		timings = buf[:p.n]
	} else {
		//rbvet:ignore noalloc — cold path: runs once per buffer size; steady-state calls reuse buf
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
