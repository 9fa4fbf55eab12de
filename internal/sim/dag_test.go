package sim

// This file holds the reference model of RubberBand's DAG-based execution
// model (§4.2). A job's execution over a given resource allocation plan is
// a directed acyclic graph of tasks: SCALE (provision resources),
// INIT_INSTANCE (initialize a provisioned instance), TRAIN (train one
// trial for a stage's iterations at its allocated GPUs) and SYNC (the
// stage-end barrier where trials are compared and pruned). Each node
// carries a latency distribution; Monte-Carlo sampling of the critical
// path (Algorithm 1) predicts the job completion time. The simulator's
// closed-form stage kernel implements this model without building a
// graph; the oracle tests sample a Graph to check it.

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// Kind enumerates the task types of the execution model.
type Kind int

const (
	// Scale is a system task: a blocking cluster-provisioning request.
	Scale Kind = iota
	// InitInstance is a system task: per-instance initialization after
	// provisioning (dependency install, cluster join).
	InitInstance
	// Train is a trial task: train one trial for a stage's iteration
	// assignment at its allocated GPUs.
	Train
	// Sync is the stage-end synchronization barrier: evaluate trial
	// quality, promote the top fraction, terminate the rest.
	Sync
)

// String returns the node-type name used in the paper.
func (k Kind) String() string {
	switch k {
	case Scale:
		return "SCALE"
	case InitInstance:
		return "INIT_INSTANCE"
	case Train:
		return "TRAIN"
	case Sync:
		return "SYNC"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Node is one task in the execution model.
type Node struct {
	// ID is the node's index in its Graph, assigned by AddNode.
	ID int
	// Kind is the task type.
	Kind Kind
	// Stage is the 0-based stage this node belongs to.
	Stage int
	// Trial is the trial index within the experiment for Train nodes
	// (-1 otherwise).
	Trial int
	// GPUs is the compute allocated to a Train node (0 otherwise).
	GPUs int
	// Latency is the node's execution-latency distribution.
	Latency stats.Dist
	// deps are the IDs of nodes that must finish before this one starts.
	deps []int
}

// Deps returns a copy of the node's dependency IDs.
func (n *Node) Deps() []int { return append([]int(nil), n.deps...) }

// Graph is a DAG of tasks: the reference model of the execution DAG.
// Nodes are added in topological order by construction: a node may only
// depend on previously added nodes, which both guarantees acyclicity and
// makes sampling a single linear pass. Graphs are bridged into Programs
// by Compile and CompileRange.
type Graph struct {
	nodes []*Node
}

// newGraph returns an empty graph.
func newGraph() *Graph { return &Graph{} }

// AddNode appends a node with the given dependencies and returns it.
// It panics if a dependency refers to a node not yet added (which would
// create a cycle or a dangling edge).
func (g *Graph) AddNode(kind Kind, stage, trial, gpus int, latency stats.Dist, deps ...int) *Node {
	id := len(g.nodes)
	for _, d := range deps {
		if d < 0 || d >= id {
			panic(fmt.Sprintf("dag: node %d depends on invalid node %d", id, d))
		}
	}
	if latency == nil {
		latency = stats.Deterministic{Value: 0}
	}
	n := &Node{
		ID:      id,
		Kind:    kind,
		Stage:   stage,
		Trial:   trial,
		GPUs:    gpus,
		Latency: latency,
		deps:    append([]int(nil), deps...),
	}
	g.nodes = append(g.nodes, n)
	return n
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// Node returns the node with the given ID.
func (g *Graph) Node(id int) *Node { return g.nodes[id] }

// Nodes returns the node list in topological (insertion) order.
func (g *Graph) Nodes() []*Node { return g.nodes }

// Timing records one sampled execution of a node.
type Timing struct {
	Start, Finish float64
}

// Sample draws one execution of the whole graph (the inner loop of
// Algorithm 1): node latencies are sampled independently and each node
// starts at the max finish time of its dependencies. It returns per-node
// timings and the makespan. An empty graph has zero makespan.
func (g *Graph) Sample(r *stats.RNG) ([]Timing, float64) {
	return g.SampleInto(r, nil)
}

// SampleInto is Sample with a caller-provided scratch buffer: buf is
// reused when it has sufficient capacity, otherwise a fresh slice is
// allocated. The returned slice aliases buf when reused, so callers must
// not retain timings from an earlier draw across calls. Monte-Carlo loops
// use this to sample allocation-free after the first draw.
func (g *Graph) SampleInto(r *stats.RNG, buf []Timing) ([]Timing, float64) {
	var timings []Timing
	if cap(buf) >= len(g.nodes) {
		timings = buf[:len(g.nodes)]
	} else {
		timings = make([]Timing, len(g.nodes))
	}
	var makespan float64
	for i, n := range g.nodes {
		start := 0.0
		for _, d := range n.deps {
			if f := timings[d].Finish; f > start {
				start = f
			}
		}
		lat := n.Latency.Sample(r)
		timings[i] = Timing{Start: start, Finish: start + lat}
		if timings[i].Finish > makespan {
			makespan = timings[i].Finish
		}
	}
	return timings, makespan
}

func det(v float64) stats.Dist { return stats.Deterministic{Value: v} }

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		Scale: "SCALE", InitInstance: "INIT_INSTANCE", Train: "TRAIN", Sync: "SYNC",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := newGraph()
	_, m := g.Sample(stats.NewRNG(1))
	if m != 0 {
		t.Fatalf("empty makespan %v", m)
	}
}

func TestLinearChain(t *testing.T) {
	g := newGraph()
	a := g.AddNode(Train, 0, 0, 1, det(2))
	b := g.AddNode(Train, 0, 1, 1, det(3), a.ID)
	c := g.AddNode(Sync, 0, -1, 0, det(1), b.ID)
	timings, m := g.Sample(stats.NewRNG(1))
	if m != 6 {
		t.Fatalf("makespan %v, want 6", m)
	}
	if timings[b.ID].Start != 2 || timings[c.ID].Start != 5 {
		t.Fatalf("timings %v", timings)
	}
}

func TestParallelNodes(t *testing.T) {
	g := newGraph()
	a := g.AddNode(Train, 0, 0, 1, det(2))
	b := g.AddNode(Train, 0, 1, 1, det(7))
	sync := g.AddNode(Sync, 0, -1, 0, det(1), a.ID, b.ID)
	timings, m := g.Sample(stats.NewRNG(1))
	if m != 8 {
		t.Fatalf("makespan %v, want 8 (max(2,7)+1)", m)
	}
	if timings[sync.ID].Start != 7 {
		t.Fatalf("sync started at %v, want 7", timings[sync.ID].Start)
	}
}

func TestAddNodePanicsOnForwardDep(t *testing.T) {
	g := newGraph()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.AddNode(Train, 0, 0, 1, det(1), 5)
}

func TestNilLatencyDefaultsToZero(t *testing.T) {
	g := newGraph()
	g.AddNode(Sync, 0, -1, 0, nil)
	_, m := g.Sample(stats.NewRNG(1))
	if m != 0 {
		t.Fatalf("makespan %v, want 0", m)
	}
}

func TestStragglerRaisesExpectedMakespan(t *testing.T) {
	// Jensen's inequality in action: the expected max of n noisy trials
	// exceeds the max of expectations — this is why synchronization
	// barriers make stragglers expensive (§3.2).
	makespan := func(sigma float64) float64 {
		g := newGraph()
		var deps []int
		for i := 0; i < 16; i++ {
			n := g.AddNode(Train, 0, i, 1, stats.Normal{Mu: 10, Sigma: sigma})
			deps = append(deps, n.ID)
		}
		g.AddNode(Sync, 0, -1, 0, det(0), deps...)
		const draws = 5000
		r := stats.NewRNG(3)
		var sum float64
		for i := 0; i < draws; i++ {
			_, m := g.Sample(r)
			sum += m
		}
		return sum / draws
	}
	low, high := makespan(0.1), makespan(3)
	if high <= low {
		t.Fatalf("straggler variance did not raise makespan: %v vs %v", low, high)
	}
	if high < 12 {
		t.Fatalf("high-variance makespan %v suspiciously low", high)
	}
}

func TestDepsCopied(t *testing.T) {
	g := newGraph()
	a := g.AddNode(Train, 0, 0, 1, det(1))
	b := g.AddNode(Sync, 0, -1, 0, det(1), a.ID)
	d := b.Deps()
	d[0] = 99
	if b.Deps()[0] != a.ID {
		t.Fatal("Deps exposed internal slice")
	}
}

// Property: makespan equals the max finish over all nodes, every node
// starts no earlier than all of its dependencies finish, and adding a node
// never decreases the makespan.
func TestQuickScheduleConsistency(t *testing.T) {
	f := func(seed uint64, latsRaw []uint8) bool {
		if len(latsRaw) == 0 || len(latsRaw) > 40 {
			return true
		}
		g := newGraph()
		r := stats.NewRNG(seed)
		depRng := stats.NewRNG(seed + 1)
		for i, lat := range latsRaw {
			var deps []int
			// Random subset of earlier nodes as dependencies.
			for d := 0; d < i; d++ {
				if depRng.Float64() < 0.3 {
					deps = append(deps, d)
				}
			}
			g.AddNode(Train, 0, i, 1, det(float64(lat)), deps...)
		}
		timings, m := g.Sample(r)
		maxFinish := 0.0
		for i, n := range g.Nodes() {
			if timings[i].Finish > maxFinish {
				maxFinish = timings[i].Finish
			}
			for _, d := range n.Deps() {
				if timings[i].Start < timings[d].Finish-1e-12 {
					return false
				}
			}
		}
		return math.Abs(m-maxFinish) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
