package executor

import (
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/placement"
	"repro/internal/searchspace"
	"repro/internal/stats"
	"repro/internal/trial"
)

// refScatter is scatter as it was before its columns were indexed by
// position in nodes: free and took indexed by node ID, took allocated
// per placed trial. It is the oracle TestScatterMatchesReference holds
// scatter to.
func refScatter(allocs []int32, nodes []*cluster.Node, prev placement.Plan) placement.Plan {
	maxID := cluster.NodeID(-1)
	for _, n := range nodes {
		maxID = max(maxID, n.ID)
	}
	free := make([]int, maxID+1)
	for _, n := range nodes {
		free[n.ID] = n.GPUs
	}
	plan := make(placement.Plan, len(allocs))
	for t, want := range allocs {
		if want < 0 || t >= len(prev) || prev[t].GPUs() != int(want) {
			continue
		}
		asg := prev[t]
		ok := true
		for _, s := range asg {
			ok = ok && int(s.Node) < len(free) && free[s.Node] >= s.GPUs
		}
		if !ok {
			continue
		}
		for _, s := range asg {
			free[s.Node] -= s.GPUs
		}
		plan[t] = asg
	}
	for t, want := range allocs {
		if want < 0 || plan[t] != nil {
			continue
		}
		took := make([]int, len(free))
		for g := int32(0); g < want; g++ {
			best := cluster.NodeID(-1)
			bestFree := -1
			for _, n := range nodes {
				if free[n.ID] > bestFree {
					best, bestFree = n.ID, free[n.ID]
				}
			}
			if bestFree < 1 {
				return nil
			}
			free[best]--
			took[best]++
		}
		var asg placement.Assignment
		for nid, g := range took {
			if g > 0 {
				asg = append(asg, placement.Slot{Node: cluster.NodeID(nid), GPUs: g})
			}
		}
		plan[t] = asg
	}
	return plan
}

// TestScatterMatchesReference drives scatter and the reference through
// the same random epochs — reshaped allocations, hand-offs and node
// churn over shuffled node lists, each epoch preserving from the last
// plan — and requires identical plans, or failure from both.
func TestScatterMatchesReference(t *testing.T) {
	r := stats.NewRNG(9)
	for run := 0; run < 200; run++ {
		gpn := 1 + r.Intn(8)
		var nodes []*cluster.Node
		next := cluster.NodeID(0)
		for i := 0; i < 1+r.Intn(6); i++ {
			nodes = append(nodes, &cluster.Node{ID: next, GPUs: gpn})
			next += cluster.NodeID(1 + r.Intn(3))
		}
		allocs := make([]int32, 12)
		for i := range allocs {
			allocs[i] = -1
		}
		var prev placement.Plan
		for epoch := 0; epoch < 20; epoch++ {
			i := r.Intn(len(allocs))
			allocs[i] = int32(r.Intn(2*gpn+1)) - 1 // -1 drops the trial
			if allocs[i] == 0 {
				allocs[i] = 1
			}
			switch r.Intn(4) {
			case 0:
				if len(nodes) > 1 {
					i := r.Intn(len(nodes))
					nodes = append(nodes[:i:i], nodes[i+1:]...)
				}
			case 1:
				nodes = append(nodes[:len(nodes):len(nodes)], &cluster.Node{ID: next, GPUs: gpn})
				next += cluster.NodeID(1 + r.Intn(3))
			}
			shuffled := slices.Clone(nodes)
			r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			got := scatter(allocs, shuffled, prev)
			want := refScatter(allocs, shuffled, prev)
			if (got == nil) != (want == nil) || !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("run %d epoch %d: scatter %v, reference %v", run, epoch, got, want)
			}
			if got != nil {
				prev = got
			}
		}
	}
}

// exactAllocs runs the rest of the test on one P with the collector
// off. MemStats counts the whole process: with a second P, or a
// collection, another goroutine's allocations or the runtime's own land
// inside a measured window.
//
//rbvet:impure(GOMAXPROCS only pins an allocation count to one P; no scheduler state reaches a run)
func exactAllocs(t *testing.T) {
	procs, gc := runtime.GOMAXPROCS(1), debug.SetGCPercent(-1)
	t.Cleanup(func() {
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(procs)
	})
}

// TestScatterAllocationFollowsLiveNodes: under spot churn node IDs climb
// into the millions while the cluster stays small. scatter's columns
// must be sized by the live node count, so a call allocates bytes in
// proportion to the nodes and trials, not to the largest ID. The bytes
// are averaged over many calls under exactAllocs.
func TestScatterAllocationFollowsLiveNodes(t *testing.T) {
	const (
		base  = 4_000_000
		calls = 64
	)
	nodes := []*cluster.Node{{ID: base + 3, GPUs: 4}, {ID: base + 900_000, GPUs: 4}, {ID: base + 77, GPUs: 4}}
	allocs := []int32{2, 3, 1, 4, -1, 2}
	exactAllocs(t)
	var plan placement.Plan
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		plan = scatter(allocs, nodes, nil)
	}
	runtime.ReadMemStats(&after)
	if plan == nil {
		t.Fatal("scatter failed")
	}
	if got := (after.TotalAlloc - before.TotalAlloc) / calls; got > 4096 {
		t.Fatalf("scatter over %d nodes with IDs near %d allocated %d bytes per call, want O(live nodes)", len(nodes), base, got)
	}
	if want := refScatter(allocs, nodes, nil); !slices.EqualFunc(plan, want, slices.Equal) {
		t.Fatalf("scatter %v, reference %v", plan, want)
	}
}

// TestBarrierRankingMatchesSortSlice: the barrier's ranking, sorted with
// byAccuracy, is the order the former sort.Slice comparator gave, on
// stages with tied accuracies, trials without an observation and IDs in
// any order.
func TestBarrierRankingMatchesSortSlice(t *testing.T) {
	r := stats.NewRNG(4)
	for run := 0; run < 500; run++ {
		n := 1 + r.Intn(40)
		ranked := make([]*trial.Trial, n)
		for i, id := range r.Perm(n) {
			tr := new(trial.Trial)
			tr.Init(trial.ID(id), searchspace.Config{})
			if r.Intn(8) > 0 {
				if err := tr.Start(1, 1); err != nil {
					t.Fatal(err)
				}
				if err := tr.RecordIteration(float64(r.Intn(6))/5, 0); err != nil {
					t.Fatal(err)
				}
			}
			ranked[i] = tr
		}
		want := slices.Clone(ranked)
		sort.Slice(want, func(i, j int) bool {
			ai, _ := want[i].LatestAccuracy()
			aj, _ := want[j].LatestAccuracy()
			if ai != aj {
				return ai > aj
			}
			return want[i].ID() < want[j].ID()
		})
		slices.SortFunc(ranked, byAccuracy)
		if !slices.Equal(ranked, want) {
			t.Fatalf("run %d: byAccuracy ranks differently from the sort.Slice comparator", run)
		}
	}
}
