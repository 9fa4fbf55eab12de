package placement

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/stats"
)

// mkNodes builds n nodes with gpus GPUs each.
func mkNodes(n, gpus int) []*cluster.Node {
	out := make([]*cluster.Node, n)
	for i := range out {
		out[i] = &cluster.Node{ID: cluster.NodeID(i), GPUs: gpus}
	}
	return out
}

// column turns a trial → GPUs map into the allocation column Update
// reads: indexed by TrialID, at least n long, -1 for absent trials.
func column(allocs map[TrialID]int, n int) []int32 {
	for t := range allocs {
		n = max(n, int(t)+1)
	}
	col := make([]int32, n)
	for i := range col {
		col[i] = -1
	}
	for t, g := range allocs {
		col[t] = int32(g)
	}
	return col
}

// update runs c.Update on the column form of allocs.
func update(c *Controller, allocs map[TrialID]int, nodes []*cluster.Node) (Plan, error) {
	return c.Update(column(allocs, 0), nodes)
}

// at returns trial t's assignment, nil when t lies beyond the plan.
func (p Plan) at(t TrialID) Assignment {
	if int(t) < len(p) {
		return p[t]
	}
	return nil
}

// placed counts the trials a plan assigns.
func placed(p Plan) int {
	n := 0
	for _, a := range p {
		if a != nil {
			n++
		}
	}
	return n
}

// Current returns a deep copy of the current placement plan.
func (c *Controller) Current() Plan { return clonePlan(c.current) }

func clonePlan(p Plan) Plan {
	out := make(Plan, len(p))
	for t, a := range p {
		out[t] = slices.Clone(a)
	}
	return out
}

// checkPlan verifies structural invariants: exact allocations, slots in
// strictly increasing node order, no node oversubscription, and
// co-location of sub-node trials.
func checkPlan(t *testing.T, plan Plan, allocs map[TrialID]int, nodes []*cluster.Node, nodeGPUs int) {
	t.Helper()
	if placed(plan) != len(allocs) {
		t.Fatalf("plan covers %d trials, want %d", placed(plan), len(allocs))
	}
	used := make(map[cluster.NodeID]int)
	capacity := make(map[cluster.NodeID]int)
	for _, n := range nodes {
		capacity[n.ID] = n.GPUs
	}
	for tr, want := range allocs {
		asg := plan.at(tr)
		if asg == nil {
			t.Fatalf("trial %d unplaced", tr)
		}
		if asg.GPUs() != want {
			t.Fatalf("trial %d got %d GPUs, want %d", tr, asg.GPUs(), want)
		}
		if want <= nodeGPUs && asg.Nodes() != 1 {
			t.Fatalf("trial %d (%d GPUs) spans %d nodes, want 1", tr, want, asg.Nodes())
		}
		for i, s := range asg {
			if _, exists := capacity[s.Node]; !exists {
				t.Fatalf("trial %d placed on unknown node %d", tr, s.Node)
			}
			if i > 0 && asg[i-1].Node >= s.Node {
				t.Fatalf("trial %d slots out of node order: %v", tr, asg)
			}
			used[s.Node] += s.GPUs
		}
	}
	for nid, u := range used {
		if u > capacity[nid] {
			t.Fatalf("node %d oversubscribed: %d > %d", nid, u, capacity[nid])
		}
	}
}

func TestNewControllerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewController(0)
}

func TestSimplePlacement(t *testing.T) {
	c := NewController(4)
	nodes := mkNodes(2, 4)
	allocs := map[TrialID]int{0: 2, 1: 2, 2: 4}
	plan, err := update(c, allocs, nodes)
	if err != nil {
		t.Fatal(err)
	}
	checkPlan(t, plan, allocs, nodes, 4)
	// Trials 0 and 1 must share a node so trial 2 gets a whole one.
	if plan[2].Nodes() != 1 {
		t.Fatalf("trial 2 fragmented: %v", plan[2])
	}
}

func TestWholeNodeTrials(t *testing.T) {
	c := NewController(4)
	nodes := mkNodes(3, 4)
	allocs := map[TrialID]int{0: 8, 1: 4}
	plan, err := update(c, allocs, nodes)
	if err != nil {
		t.Fatal(err)
	}
	checkPlan(t, plan, allocs, nodes, 4)
	if plan[0].Nodes() != 2 {
		t.Fatalf("8-GPU trial spans %d nodes, want exactly 2", plan[0].Nodes())
	}
}

func TestDemandExceedsCapacity(t *testing.T) {
	c := NewController(4)
	if _, err := update(c, map[TrialID]int{0: 9}, mkNodes(2, 4)); err == nil {
		t.Fatal("oversubscription accepted")
	}
}

func TestZeroAllocationRejected(t *testing.T) {
	c := NewController(4)
	if _, err := update(c, map[TrialID]int{0: 0}, mkNodes(1, 4)); err == nil {
		t.Fatal("zero allocation accepted")
	}
}

func TestPreservationAcrossEpochs(t *testing.T) {
	c := NewController(4)
	nodes := mkNodes(4, 4)
	allocs := map[TrialID]int{0: 4, 1: 4, 2: 4, 3: 4}
	plan1, err := update(c, allocs, nodes)
	if err != nil {
		t.Fatal(err)
	}
	plan1 = clonePlan(plan1) // valid only until the next Update
	// Trial 3 finishes; the rest keep their allocation. Their placements
	// must be untouched.
	delete(allocs, 3)
	plan2, err := update(c, allocs, nodes)
	if err != nil {
		t.Fatal(err)
	}
	for tr := TrialID(0); tr < 3; tr++ {
		if !slices.Equal(plan1[tr], plan2[tr]) {
			t.Fatalf("trial %d moved: %v -> %v", tr, plan1[tr], plan2[tr])
		}
	}
}

func TestReallocationTriggersMove(t *testing.T) {
	c := NewController(4)
	nodes := mkNodes(4, 4)
	plan1, err := update(c, map[TrialID]int{0: 2, 1: 2, 2: 2, 3: 2}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	_ = plan1
	// Stage transition: two survivors double their allocation.
	allocs := map[TrialID]int{0: 4, 1: 4}
	plan2, err := update(c, allocs, nodes)
	if err != nil {
		t.Fatal(err)
	}
	checkPlan(t, plan2, allocs, nodes, 4)
	// Each survivor is co-located on a single node (Table 1's property).
	for tr, asg := range plan2 {
		if asg != nil && asg.Nodes() != 1 {
			t.Fatalf("trial %d not co-located: %v", tr, asg)
		}
	}
}

func TestDisplacementMakesRoom(t *testing.T) {
	c := NewController(4)
	nodes := mkNodes(2, 4)
	// Two small trials land anywhere.
	if _, err := update(c, map[TrialID]int{10: 1, 11: 1}, nodes); err != nil {
		t.Fatal(err)
	}
	// Now a 4-GPU trial arrives; if the small trials sit on different
	// nodes, one must be displaced so the big trial gets a full node.
	allocs := map[TrialID]int{10: 1, 11: 1, 12: 4}
	plan, err := update(c, allocs, nodes)
	if err != nil {
		t.Fatal(err)
	}
	checkPlan(t, plan, allocs, nodes, 4)
	if plan[12].Nodes() != 1 {
		t.Fatalf("big trial fragmented: %v", plan[12])
	}
}

func TestRemove(t *testing.T) {
	c := NewController(4)
	nodes := mkNodes(1, 4)
	if _, err := update(c, map[TrialID]int{0: 4}, nodes); err != nil {
		t.Fatal(err)
	}
	c.Remove(0)
	if placed(c.Current()) != 0 {
		t.Fatal("Remove left placement behind")
	}
	// Freed capacity is immediately reusable.
	plan, err := update(c, map[TrialID]int{1: 4}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if plan[1].GPUs() != 4 {
		t.Fatalf("plan %v", plan)
	}
}

func TestNodeRemovalForcesReplacement(t *testing.T) {
	c := NewController(4)
	nodes := mkNodes(2, 4)
	if _, err := update(c, map[TrialID]int{0: 4, 1: 4}, nodes); err != nil {
		t.Fatal(err)
	}
	// Node 1 is drained away; trial on it must be replaced onto node 0.
	allocs := map[TrialID]int{0: 4}
	plan, err := update(c, allocs, nodes[:1])
	if err != nil {
		t.Fatal(err)
	}
	checkPlan(t, plan, allocs, nodes[:1], 4)
}

// TestDrainOrderReusesScratch: a warm DrainOrder allocates nothing and
// orders the nodes exactly as a new controller with the same placement
// does, over a larger node set and then a smaller one.
func TestDrainOrderReusesScratch(t *testing.T) {
	warm := NewController(4)
	for _, n := range []int{6, 9, 2} {
		nodes := mkNodes(n, 4)
		allocs := map[TrialID]int{0: 4, 1: 2, 2: 1}
		fresh := NewController(4)
		for _, c := range []*Controller{warm, fresh} {
			if _, err := update(c, allocs, nodes); err != nil {
				t.Fatal(err)
			}
		}
		got := warm.DrainOrder(nodes)
		if want := fresh.DrainOrder(nodes); !slices.Equal(got, want) {
			t.Fatalf("%d nodes: warm drain order %v, new controller %v", n, got, want)
		}
		if allocs := testing.AllocsPerRun(20, func() { warm.DrainOrder(nodes) }); allocs != 0 {
			t.Fatalf("%d nodes: warm DrainOrder allocates %v times", n, allocs)
		}
	}
}

func TestDrainOrderPrefersEmptyNodes(t *testing.T) {
	c := NewController(4)
	nodes := mkNodes(3, 4)
	if _, err := update(c, map[TrialID]int{0: 4, 1: 2}, nodes); err != nil {
		t.Fatal(err)
	}
	order := c.DrainOrder(nodes)
	if len(order) != 3 {
		t.Fatalf("order %v", order)
	}
	// First node to drain must be the one with no placement.
	used := map[cluster.NodeID]int{}
	for _, a := range c.Current() {
		for _, s := range a {
			used[s.Node] += s.GPUs
		}
	}
	if used[order[0]] != 0 {
		t.Fatalf("drain order %v starts with used node (%d GPUs)", order, used[order[0]])
	}
	if used[order[2]] < used[order[1]] {
		t.Fatalf("drain order %v not emptiest-first", order)
	}
}

func TestCurrentIsCopy(t *testing.T) {
	c := NewController(4)
	nodes := mkNodes(1, 4)
	if _, err := update(c, map[TrialID]int{0: 2}, nodes); err != nil {
		t.Fatal(err)
	}
	snap := c.Current()
	snap[0][0].GPUs = 99
	if c.Current()[0][0].GPUs != 2 {
		t.Fatal("Current exposed internal state")
	}
}

// Property: for random workloads Update either errors (genuine bin-packing
// infeasibility) or yields a valid plan — exact totals, no
// oversubscription, sub-node trials co-located.
func TestQuickPlacementInvariants(t *testing.T) {
	f := func(rawAllocs []uint8, nodesRaw uint8) bool {
		nodeGPUs := 8
		nNodes := int(nodesRaw%6) + 1
		nodes := mkNodes(nNodes, nodeGPUs)
		capacity := nNodes * nodeGPUs

		c := NewController(nodeGPUs)
		allocs := make(map[TrialID]int)
		total := 0
		for i, raw := range rawAllocs {
			if i >= 12 {
				break
			}
			g := int(raw%uint8(nodeGPUs)) + 1
			if total+g > capacity {
				continue
			}
			allocs[TrialID(i)] = g
			total += g
		}
		if len(allocs) == 0 {
			return true
		}
		plan, err := update(c, allocs, nodes)
		if err != nil {
			return true // fragmentation can make co-location impossible
		}
		used := make(map[cluster.NodeID]int)
		for tr, want := range allocs {
			asg := plan.at(tr)
			if asg.GPUs() != want {
				return false
			}
			if want <= nodeGPUs && asg.Nodes() != 1 {
				return false
			}
			for _, s := range asg {
				used[s.Node] += s.GPUs
			}
		}
		for _, u := range used {
			if u > nodeGPUs {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: fair workloads — equal per-trial allocations over NodesNeeded
// nodes, the shape the executor always produces — must always place.
func TestQuickFairWorkloadsAlwaysPlace(t *testing.T) {
	f := func(trialsRaw, perRaw, gpnRaw uint8) bool {
		trials := int(trialsRaw%16) + 1
		gpn := []int{1, 2, 4, 8}[gpnRaw%4]
		per := int(perRaw%16) + 1
		nodes := mkNodes(NodesNeeded(trials, per, gpn), gpn)
		c := NewController(gpn)
		allocs := make(map[TrialID]int, trials)
		for i := 0; i < trials; i++ {
			allocs[TrialID(i)] = per
		}
		plan, err := update(c, allocs, nodes)
		if err != nil {
			return false
		}
		for _, want := range allocs {
			if want <= gpn {
				// Co-location invariant for sub-node trials.
				for tr := range allocs {
					if plan[tr].Nodes() != 1 && allocs[tr] <= gpn {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNodesNeeded(t *testing.T) {
	cases := []struct{ trials, per, gpn, want int }{
		{32, 1, 4, 8}, // Table 3 stage 0: 32 trials x 1 GPU on 4-GPU nodes
		{10, 2, 4, 5}, // Table 3 stage 1
		{3, 4, 4, 3},  // Table 3 stage 2 (one node per trial)
		{1, 8, 4, 2},  // Table 3 stage 3 (survivor spans 2 nodes)
		{4, 3, 4, 4},  // non-dividing: one 3-GPU trial per 4-GPU node
		{2, 6, 4, 3},  // 6 = 4+2: whole node each, remainders share a node
		{1, 1, 8, 1},  //
		{5, 8, 8, 5},  // whole-node trials
		{3, 12, 8, 6}, // 12 = 8+4: 3 whole + remainder 4 -> 2 per node? 8/4=2 -> ceil(3/2)=2 -> 5? see below
	}
	for _, c := range cases {
		got := NodesNeeded(c.trials, c.per, c.gpn)
		if c.trials == 3 && c.per == 12 {
			// 3 whole nodes + remainders of 4 GPUs each, two of which
			// share one node: 3 + 2 = 5.
			if got != 5 {
				t.Errorf("NodesNeeded(3,12,8) = %d, want 5", got)
			}
			continue
		}
		if got != c.want {
			t.Errorf("NodesNeeded(%d,%d,%d) = %d, want %d", c.trials, c.per, c.gpn, got, c.want)
		}
	}
}

func TestNodesNeededPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NodesNeeded(0, 1, 1)
}

// Property: two consecutive Updates with identical allocations yield the
// identical plan (stability).
func TestQuickPlacementStable(t *testing.T) {
	f := func(rawAllocs []uint8) bool {
		nodeGPUs := 4
		nodes := mkNodes(8, nodeGPUs)
		c := NewController(nodeGPUs)
		allocs := make(map[TrialID]int)
		total := 0
		for i, raw := range rawAllocs {
			if i >= 8 {
				break
			}
			g := int(raw%4) + 1
			if total+g > 32 {
				continue
			}
			allocs[TrialID(i)] = g
			total += g
		}
		if len(allocs) == 0 {
			return true
		}
		p1, err := update(c, allocs, nodes)
		if err != nil {
			return false
		}
		p1 = clonePlan(p1)
		p2, err := update(c, allocs, nodes)
		if err != nil {
			return false
		}
		return slices.EqualFunc(p1, p2, slices.Equal)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPickVictimTieDeterministic forces a displacement whose two victim
// candidates hold the same GPU count and checks that the controller
// breaks the tie by TrialID — the same victim on every run, regardless
// of iteration order. (Before the (GPUs, TrialID) total order, the
// map-based controller let first-seen-in-map-order win, and identical
// inputs produced different plans across runs.)
func TestPickVictimTieDeterministic(t *testing.T) {
	var ref Plan
	for run := 0; run < 50; run++ {
		c := NewController(2)
		nodes := mkNodes(2, 2)

		// Epoch 1 fills both nodes so that trial 10 lands on node 0 and
		// trial 98 on node 1.
		first := map[TrialID]int{10: 1, 20: 1, 98: 1, 99: 1}
		if _, err := update(c, first, nodes); err != nil {
			t.Fatal(err)
		}
		c.Remove(20)
		c.Remove(99)

		// Epoch 2: trial 30 needs a whole node; displacing either trial
		// 10 or trial 98 (1 GPU each — a tie) would free one. The victim
		// must always be trial 10, the smaller ID.
		second := map[TrialID]int{10: 1, 98: 1, 30: 2}
		plan, err := update(c, second, nodes)
		if err != nil {
			t.Fatal(err)
		}
		checkPlan(t, plan, second, nodes, 2)
		tenNode, ninetyEightNode := plan[10][0].Node, plan[98][0].Node
		if ninetyEightNode != 1 {
			t.Fatalf("run %d: trial 98 moved to node %d; only trial 10 (smaller ID) should be displaced", run, ninetyEightNode)
		}
		if tenNode != 1 {
			t.Fatalf("run %d: trial 10 on node %d, want displaced to node 1", run, tenNode)
		}
		if ref == nil {
			ref = clonePlan(plan)
		} else if !slices.EqualFunc(ref, plan, slices.Equal) {
			t.Fatalf("run %d: plan differs from run 0:\n  got  %v\n  want %v", run, plan, ref)
		}
	}
}

func TestMoves(t *testing.T) {
	prev := Plan{
		0: {{0, 4}},
		1: {{1, 2}},
		2: {{1, 2}},
	}
	next := Plan{
		0: {{0, 4}},         // unchanged
		1: {{2, 2}},         // moved node
		2: {{1, 2}, {2, 2}}, // grew
		3: {{3, 4}},         // new trial
	}
	if got := Moves(prev, next); got != 3 {
		t.Fatalf("Moves = %d, want 3", got)
	}
	if got := Moves(prev, prev); got != 0 {
		t.Fatalf("Moves(p, p) = %d, want 0", got)
	}
	if got := Moves(Plan{}, prev); got != len(prev) {
		t.Fatalf("Moves from empty = %d, want %d", got, len(prev))
	}
	// Trials dropped from next don't count: only next's gangs migrate.
	if got := Moves(prev, Plan{0: {{0, 4}}}); got != 0 {
		t.Fatalf("Moves after termination = %d, want 0", got)
	}
}

// refController is a direct, unoptimized formulation of Algorithm 3 —
// the map-based controller the dense one replaced: it deep-clones every
// preserved gang and every plan it returns, and keys allocations, plans
// and free capacity by ID in maps. It is the oracle
// TestUpdateMatchesReference and FuzzUpdateMatchesReference hold
// Controller.Update to.
type refController struct {
	nodeGPUs int
	current  mapPlan
}

// mapAssignment and mapPlan are the reference's forms of Assignment and
// Plan: GPUs by node, and assignments by trial.
type (
	mapAssignment map[cluster.NodeID]int
	mapPlan       map[TrialID]mapAssignment
)

func (a mapAssignment) GPUs() int {
	total := 0
	for _, g := range a {
		total += g
	}
	return total
}

func newRefController(nodeGPUs int) *refController {
	return &refController{nodeGPUs: nodeGPUs, current: make(mapPlan)}
}

func cloneAssignment(a mapAssignment) mapAssignment {
	c := make(mapAssignment, len(a))
	for n, g := range a {
		c[n] = g
	}
	return c
}

func cloneMapPlan(p mapPlan) mapPlan {
	c := make(mapPlan, len(p))
	for t, a := range p {
		c[t] = cloneAssignment(a)
	}
	return c
}

// refSortTrials orders trials by allocation descending, then by ID.
func refSortTrials(ts []TrialID, allocs map[TrialID]int) {
	slices.SortFunc(ts, func(a, b TrialID) int {
		if allocs[a] != allocs[b] {
			return cmp.Compare(allocs[b], allocs[a])
		}
		return cmp.Compare(a, b)
	})
}

// matchesRef reports whether a dense plan assigns exactly what the
// reference plan does.
func matchesRef(got Plan, want mapPlan) bool {
	if placed(got) != len(want) {
		return false
	}
	for t, w := range want {
		g := got.at(t)
		if len(g) != len(w) {
			return false
		}
		for _, s := range g {
			if w[s.Node] != s.GPUs {
				return false
			}
		}
	}
	return true
}

func (c *refController) Remove(t TrialID) { delete(c.current, t) }

func (c *refController) Update(allocs map[TrialID]int, nodes []*cluster.Node) (mapPlan, error) {
	demand := 0
	for t, g := range allocs {
		if g < 1 {
			return nil, fmt.Errorf("placement: trial %d allocated %d GPUs", t, g)
		}
		demand += g
	}
	capacity := 0
	for _, n := range nodes {
		capacity += n.GPUs
	}
	if demand > capacity {
		return nil, fmt.Errorf("placement: demand %d GPUs exceeds capacity %d", demand, capacity)
	}
	nodeSet := make(map[cluster.NodeID]int, len(nodes))
	for _, n := range nodes {
		nodeSet[n.ID] = n.GPUs
	}
	plan := make(mapPlan, len(allocs))
	for t, a := range c.current {
		want, live := allocs[t]
		if !live {
			continue
		}
		ok := a.GPUs() == want
		for nid := range a {
			if _, exists := nodeSet[nid]; !exists {
				ok = false
			}
		}
		if ok {
			plan[t] = cloneAssignment(a)
		}
	}
	if len(plan) == len(allocs) {
		c.current = plan
		return cloneMapPlan(plan), nil
	}
	free := make(map[cluster.NodeID]int, len(nodes))
	for id, cap := range nodeSet {
		free[id] = cap
	}
	for _, a := range plan {
		for nid, g := range a {
			free[nid] -= g
			if free[nid] < 0 {
				return nil, fmt.Errorf("placement: preserved plan oversubscribes node %d", nid)
			}
		}
	}
	var queue []TrialID
	for t := range allocs {
		if _, done := plan[t]; !done {
			queue = append(queue, t)
		}
	}
	refSortTrials(queue, allocs)
	placedNow := make(map[TrialID]bool)
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		asg, displaced, err := c.place(t, allocs[t], plan, free, placedNow)
		if err != nil {
			return nil, err
		}
		plan[t] = asg
		placedNow[t] = true
		if len(displaced) > 0 {
			queue = append(queue, displaced...)
			refSortTrials(queue, allocs)
		}
	}
	c.current = plan
	return cloneMapPlan(plan), nil
}

func (c *refController) place(t TrialID, want int, plan mapPlan, free map[cluster.NodeID]int, placedNow map[TrialID]bool) (mapAssignment, []TrialID, error) {
	asg := make(mapAssignment)
	remaining := want
	var displaced []TrialID
	for remaining > 0 {
		unit := min(remaining, c.nodeGPUs)
		nid, ok := refBestFit(free, unit)
		if !ok {
			victim, vok := c.pickVictim(plan, free, unit, t, placedNow)
			if !vok {
				return nil, nil, fmt.Errorf("placement: cannot fit %d GPUs for trial %d", unit, t)
			}
			for nid, g := range plan[victim] {
				free[nid] += g
			}
			delete(plan, victim)
			displaced = append(displaced, victim)
			continue
		}
		free[nid] -= unit
		asg[nid] += unit
		remaining -= unit
	}
	return asg, displaced, nil
}

func refBestFit(free map[cluster.NodeID]int, unit int) (cluster.NodeID, bool) {
	best := cluster.NodeID(-1)
	bestFree := int(^uint(0) >> 1)
	for nid, f := range free {
		if f >= unit && (f < bestFree || (f == bestFree && nid < best)) {
			//rbvet:ignore maporder — ties on free capacity resolve to the smallest NodeID, a strict total order independent of iteration order
			best, bestFree = nid, f
		}
	}
	return best, best >= 0
}

func (c *refController) pickVictim(plan mapPlan, free map[cluster.NodeID]int, unit int, t TrialID, placedNow map[TrialID]bool) (TrialID, bool) {
	victim := TrialID(-1)
	victimGPUs := int(^uint(0) >> 1)
	for cand, asg := range plan {
		if cand == t || placedNow[cand] {
			continue
		}
		g := asg.GPUs()
		if g > victimGPUs || (g == victimGPUs && cand > victim) {
			continue
		}
		for nid, held := range asg {
			if free[nid]+held >= unit {
				//rbvet:ignore maporder — selection follows the strict (GPUs, TrialID) total order established by the guard above
				victim, victimGPUs = cand, g
				break
			}
		}
	}
	return victim, victim >= 0
}

// rebuiltFree is the per-epoch rebuild Update made before free capacity
// was carried across epochs: every node of cols at full capacity, less
// each slot of plan, found by binary search. It is the oracle
// checkFreeColumn holds the carried column to.
func rebuiltFree(plan Plan, cols nodeCols) ([]int, error) {
	ids, caps, _ := cols.split()
	free := slices.Clone(caps)
	for t, a := range plan {
		for _, s := range a {
			i := cols.pos(s.Node)
			if i < 0 {
				return nil, fmt.Errorf("trial %d holds a slot on node %d, not among the columns %v", t, s.Node, ids)
			}
			free[i] -= s.GPUs
		}
	}
	return free, nil
}

// checkFreeColumn requires the controller's carried free capacity to be
// the rebuild from its current plan.
func checkFreeColumn(t *testing.T, c *Controller, op int) {
	t.Helper()
	want, err := rebuiltFree(c.current, c.cols)
	if err != nil {
		t.Fatalf("op %d: %v", op, err)
	}
	if ids, _, free := c.cols.split(); !slices.Equal(free, want) {
		t.Fatalf("op %d: carried free capacity %v on nodes %v, rebuilt %v", op, free, ids, want)
	}
}

// intner is the op-stream source shared by the seeded test (a stats.RNG)
// and the fuzz target (the fuzzer's bytes).
type intner interface{ Intn(n int) int }

// byteOps draws op-stream choices from fuzz input, 0 once it runs out.
type byteOps []byte

func (b *byteOps) Intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v % n
}

// checkAgainstReference drives the controller and the map-based
// reference through ops random steps — Update after reshaping the
// allocation, queue hand-offs (one trial leaves and one of the same size
// joins), Remove and node churn (preemption-style loss,
// replacement, scale-up) — and requires identical plans, and identical
// success or failure, at every Update. It also holds the plan lifetime
// contract: the last plan Update returned stays intact until the next
// Update or Remove, including across a failed Update, and the gangs it
// holds stay intact through the next Update, as the executor's barrier
// copy of it needs. It also requires the free capacity the controller
// carries across epochs to equal the per-epoch rebuild after every op.
// It returns the Update and failure counts.
func checkAgainstReference(t *testing.T, r intner, ops int) (updates, failures int) {
	t.Helper()
	gpn := []int{1, 2, 4, 8}[r.Intn(4)]
	c, ref := NewController(gpn), newRefController(gpn)
	nodes := mkNodes(2+r.Intn(6), gpn)
	nextNode := cluster.NodeID(len(nodes))
	allocs := map[TrialID]int{}
	nextTrial := TrialID(0)
	// The live returned plan, its deep copy and a shallow copy of it,
	// taken when it was returned.
	var last, snap, barrier Plan
	checkLast := func(op int, what string) {
		t.Helper()
		if last != nil && !slices.EqualFunc(last, snap, slices.Equal) {
			t.Fatalf("op %d: returned plan changed before %s: %v, was %v", op, what, last, snap)
		}
	}
	doUpdate := func(op int) {
		t.Helper()
		checkLast(op, "the next Update")
		got, err := c.Update(column(allocs, int(nextTrial)+r.Intn(3)), nodes)
		want, werr := ref.Update(maps.Clone(allocs), nodes)
		if !slices.EqualFunc(barrier, snap, slices.Equal) {
			t.Fatalf("op %d: the Update after a plan changed its gangs: %v, was %v", op, barrier, snap)
		}
		updates++
		if (err == nil) != (werr == nil) {
			t.Fatalf("op %d: error %v, reference %v", op, err, werr)
		}
		if err != nil {
			failures++
			checkLast(op, "a failed Update returned")
			return
		}
		if !matchesRef(got, want) {
			t.Fatalf("op %d: plan %v, reference %v", op, got, want)
		}
		last, snap, barrier = got, clonePlan(got), slices.Clone(got)
	}
	for op := 0; op < ops; op++ {
		switch k := r.Intn(12); {
		case k < 5: // reshape the allocation, then Update
			switch r.Intn(3) {
			case 0:
				allocs[nextTrial] = 1 + r.Intn(2*gpn)
				nextTrial++
			case 1:
				if len(allocs) > 0 {
					allocs[TrialID(r.Intn(int(nextTrial)))] = 1 + r.Intn(2*gpn)
				}
			case 2:
				delete(allocs, TrialID(r.Intn(int(nextTrial)+1)))
			}
			doUpdate(op)
		case k < 7: // a queue hand-off: one trial leaves, a same-size one joins
			if len(allocs) == 0 {
				continue
			}
			ids := make([]TrialID, 0, len(allocs))
			for id := range allocs {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			leaver := ids[r.Intn(len(ids))]
			allocs[nextTrial] = allocs[leaver]
			nextTrial++
			delete(allocs, leaver)
			doUpdate(op)
		case k < 10: // a trial finishes or is terminated
			checkLast(op, "Remove")
			last = nil
			id := TrialID(r.Intn(int(nextTrial) + 1))
			c.Remove(id)
			ref.Remove(id)
			delete(allocs, id)
		default: // node churn
			if r.Intn(2) == 0 && len(nodes) > 1 {
				i := r.Intn(len(nodes))
				nodes = append(nodes[:i:i], nodes[i+1:]...)
			} else {
				nodes = append(nodes[:len(nodes):len(nodes)], &cluster.Node{ID: nextNode, GPUs: gpn})
				nextNode++
			}
		}
		checkFreeColumn(t, c, op)
	}
	checkLast(ops, "the end")
	return updates, failures
}

// TestUpdateMatchesReference runs checkAgainstReference over seeded op
// streams, each of which must see some Update succeed.
func TestUpdateMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		if updates, failures := checkAgainstReference(t, stats.NewRNG(seed), 300); updates == failures {
			t.Fatalf("seed %d: no Update succeeded", seed)
		}
	}
}

// FuzzUpdateMatchesReference runs checkAgainstReference over op streams
// the fuzzer mutates: one op per three input bytes (a typical op's draw
// count), at most 300. Seeds live in
// testdata/fuzz/FuzzUpdateMatchesReference.
func FuzzUpdateMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := byteOps(data)
		checkAgainstReference(t, &ops, min(len(data)/3, 300))
	})
}

// TestReturnedPlanNotAliased pins the plan lifetime contract: a plan
// Update returned survives node churn and failed Updates untouched, and stays valid until the next Update or Remove — Remove
// edits it in place, and a successful Update reuses its buffer. So the
// executor copies the plan before the barrier's Removes, and its
// migration count reads that copy.
func TestReturnedPlanNotAliased(t *testing.T) {
	c := NewController(4)
	nodes := mkNodes(3, 4)
	prev, err := update(c, map[TrialID]int{0: 2, 1: 2, 2: 1, 3: 1}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	snap := clonePlan(prev)
	// Every gang is dropped and three are placed again before the fourth
	// finds no node and no displaceable trial: the rollback must restore
	// the plan as it was.
	if _, err := update(c, map[TrialID]int{0: 3, 1: 3, 2: 3, 3: 3}, nodes); err == nil {
		t.Fatal("unplaceable allocation accepted")
	}
	if _, err := update(c, map[TrialID]int{0: 2, 1: 2, 2: 1, 3: 1, 4: 9}, nodes); err == nil {
		t.Fatal("oversubscription accepted")
	}
	if !slices.EqualFunc(prev, snap, slices.Equal) {
		t.Fatalf("a failed Update changed the returned plan: %v, was %v", prev, snap)
	}

	// The barrier snapshot: a shallow copy taken before Remove keeps every
	// gang, because Remove only drops trials from the plan.
	barrier := slices.Clone(prev)
	c.Remove(2)
	c.Remove(0)
	if prev[0] != nil || prev[2] != nil || !slices.Equal(prev[1], snap[1]) {
		t.Fatalf("Remove did not edit the returned plan in place: %v", prev)
	}
	// Trial 1 keeps its gang, trial 4 needs a whole node (displacing trial
	// 3 if it sits in the way), and node 2 is gone.
	next, err := update(c, map[TrialID]int{1: 2, 3: 1, 4: 4}, nodes[:2])
	if err != nil {
		t.Fatal(err)
	}
	if got, want := Moves(barrier, next), Moves(snap, next); got != want || got == 0 {
		t.Fatalf("Moves(barrier, next) = %d, want %d (> 0)", got, want)
	}
	if !slices.Equal(next[1], snap[1]) {
		t.Fatalf("trial 1 moved: %v -> %v", snap[1], next[1])
	}
	c.Remove(1)
	if next[1] != nil || placed(next) != 2 {
		t.Fatalf("Remove after Update left %v", next)
	}
}

// TestUpdateErrorNamesLowestTrial: when several trials are at fault at
// once, the error names the lowest TrialID on every run. (The map-based
// controller reported whichever trial map iteration reached first.)
func TestUpdateErrorNamesLowestTrial(t *testing.T) {
	for run := 0; run < 20; run++ {
		c := NewController(4)
		nodes := mkNodes(2, 4)
		if _, err := update(c, map[TrialID]int{3: 1, 5: 2, 7: 2}, nodes); err != nil {
			t.Fatal(err)
		}
		_, err := update(c, map[TrialID]int{3: 1, 5: 2, 7: 2, 8: 0, 9: 0}, nodes)
		if err == nil || !strings.Contains(err.Error(), "trial 8 ") {
			t.Fatalf("run %d: error %v, want trial 8", run, err)
		}
	}
}

// handoffShape is the executor's tight-budget stage on 8-GPU nodes: 32
// trials of 4 GPUs over 16 nodes, with as many again queued behind them.
// The live trials are a window over a 64-trial column; handoff slides it
// by one, so trial k leaves and trial k+32 joins, as when a finished
// trial hands its slot to the head of the queue.
type handoffShape struct {
	allocs []int32
	nodes  []*cluster.Node
	k      int
}

func newHandoffShape() *handoffShape {
	h := &handoffShape{allocs: make([]int32, 64), nodes: mkNodes(16, 8)}
	for i := range h.allocs {
		h.allocs[i] = -1
		if i < 32 {
			h.allocs[i] = 4
		}
	}
	return h
}

func (h *handoffShape) handoff() {
	h.allocs[h.k%64], h.allocs[(h.k+32)%64] = -1, 4
	h.k++
}

// TestUpdateHandoffAllocs: once the plan, the slot storage and the
// scratch exist, a hand-off Update carves the newcomer's Assignment
// from the slot storage and allocates nothing, and neither does an
// Update that preserves everything.
func TestUpdateHandoffAllocs(t *testing.T) {
	h := newHandoffShape()
	c := NewController(8)
	var err error
	for i := 0; i < 4 && err == nil; i++ {
		_, err = c.Update(h.allocs, h.nodes)
		h.handoff()
	}
	handoff := testing.AllocsPerRun(100, func() {
		if err == nil {
			h.handoff()
			_, err = c.Update(h.allocs, h.nodes)
		}
	})
	preserved := testing.AllocsPerRun(100, func() {
		if err == nil {
			_, err = c.Update(h.allocs, h.nodes)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if handoff != 0 || preserved != 0 {
		t.Fatalf("hand-off Update allocated %v objects (want 0), preserving Update %v (want 0)", handoff, preserved)
	}
}

// TestUpdateScratchFollowsLiveNodes: under spot churn every replacement
// node gets a fresh ID, so IDs climb without bound while the cluster
// stays small. Update's scratch, and with it bestFit's scan, must be
// sized by the live node count, not by the largest ID; placements on
// sparse IDs, in any order, must match the same cluster renumbered
// densely.
func TestUpdateScratchFollowsLiveNodes(t *testing.T) {
	const base = 3_000_000
	sparse := []*cluster.Node{
		{ID: base + 40, GPUs: 4}, {ID: 7, GPUs: 4}, {ID: base + 900_000, GPUs: 4}, {ID: base, GPUs: 4},
	}
	dense := mkNodes(4, 4) // the same cluster, IDs 0..3 in ascending sparse order
	allocs := map[TrialID]int{0: 3, 1: 2, 2: 4, 3: 1, 4: 2, 5: 1}
	cs, cd := NewController(4), NewController(4)
	got, err := update(cs, allocs, sparse)
	if err != nil {
		t.Fatal(err)
	}
	want, err := update(cd, allocs, dense)
	if err != nil {
		t.Fatal(err)
	}
	order := []cluster.NodeID{7, base, base + 40, base + 900_000}
	for tr, asg := range want {
		for i, s := range asg {
			if g := got[tr][i]; g.Node != order[s.Node] || g.GPUs != s.GPUs {
				t.Fatalf("trial %d slot %d on sparse IDs is %+v, dense placement %+v", tr, i, g, s)
			}
		}
	}
	if cap(cs.cols) > 3*len(sparse) {
		t.Fatalf("node columns sized %d for %d live nodes (3 columns each)", cap(cs.cols), len(sparse))
	}
	drain := cs.DrainOrder(sparse)
	wantDrain := cd.DrainOrder(dense)
	for i, id := range wantDrain {
		if drain[i] != order[id] {
			t.Fatalf("drain order %v, dense %v", drain, wantDrain)
		}
	}
}

// TestUpdateMatchesReferenceOnResizedNodes: a node that keeps its ID but
// changes its GPU count (at most nodeGPUs, the controller's contract)
// keeps the gangs it can still hold, and a
// preserved plan that no longer fits fails the Update, exactly as the
// map-based reference decides, on node lists in any order. The carried
// free capacity stays the rebuild throughout.
func TestUpdateMatchesReferenceOnResizedNodes(t *testing.T) {
	r := stats.NewRNG(17)
	updates, failures := 0, 0
	for run := 0; run < 50; run++ {
		c, ref := NewController(4), newRefController(4)
		allocs := map[TrialID]int{}
		for op := 0; op < 60; op++ {
			allocs[TrialID(r.Intn(10))] = 1 + r.Intn(6)
			if r.Intn(3) == 0 {
				id := TrialID(r.Intn(10))
				delete(allocs, id)
				c.Remove(id)
				ref.Remove(id)
			}
			nodes := make([]*cluster.Node, 5)
			for i := range nodes {
				nodes[i] = &cluster.Node{ID: cluster.NodeID(3 * i), GPUs: 1 + r.Intn(4)}
			}
			if r.Intn(2) == 0 {
				r.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
			}
			got, err := update(c, allocs, nodes)
			want, werr := ref.Update(maps.Clone(allocs), nodes)
			updates++
			if (err == nil) != (werr == nil) {
				t.Fatalf("run %d op %d: error %v, reference %v", run, op, err, werr)
			}
			if err != nil {
				failures++
			} else if !matchesRef(got, want) {
				t.Fatalf("run %d op %d: plan %v, reference %v", run, op, got, want)
			}
			checkFreeColumn(t, c, op)
		}
	}
	if failures == 0 || failures == updates {
		t.Fatalf("%d of %d Updates failed: the stream must exercise both outcomes", failures, updates)
	}
}

// NewController returns a controller for nodes with nodeGPUs accelerators
// each. It panics if nodeGPUs < 1.
func NewController(nodeGPUs int) *Controller {
	if nodeGPUs < 1 {
		panic(fmt.Sprintf("placement: nodeGPUs = %d", nodeGPUs))
	}
	return &Controller{nodeGPUs: nodeGPUs}
}
