package placement

import (
	"fmt"
	"maps"
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

// checkPlan verifies structural invariants: exact allocations, no node
// oversubscription, and co-location of sub-node trials.
func checkPlan(t *testing.T, plan Plan, allocs map[TrialID]int, nodes []*cluster.Node, nodeGPUs int) {
	t.Helper()
	if len(plan) != len(allocs) {
		t.Fatalf("plan covers %d trials, want %d", len(plan), len(allocs))
	}
	used := make(map[cluster.NodeID]int)
	capacity := make(map[cluster.NodeID]int)
	for _, n := range nodes {
		capacity[n.ID] = n.GPUs
	}
	for tr, want := range allocs {
		asg, ok := plan[tr]
		if !ok {
			t.Fatalf("trial %d unplaced", tr)
		}
		if asg.GPUs() != want {
			t.Fatalf("trial %d got %d GPUs, want %d", tr, asg.GPUs(), want)
		}
		if want <= nodeGPUs && asg.Nodes() != 1 {
			t.Fatalf("trial %d (%d GPUs) spans %d nodes, want 1", tr, want, asg.Nodes())
		}
		for nid, g := range asg {
			if _, exists := capacity[nid]; !exists {
				t.Fatalf("trial %d placed on unknown node %d", tr, nid)
			}
			used[nid] += g
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
	plan, err := c.Update(allocs, nodes)
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
	plan, err := c.Update(allocs, nodes)
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
	if _, err := c.Update(map[TrialID]int{0: 9}, mkNodes(2, 4)); err == nil {
		t.Fatal("oversubscription accepted")
	}
}

func TestZeroAllocationRejected(t *testing.T) {
	c := NewController(4)
	if _, err := c.Update(map[TrialID]int{0: 0}, mkNodes(1, 4)); err == nil {
		t.Fatal("zero allocation accepted")
	}
}

func TestPreservationAcrossEpochs(t *testing.T) {
	c := NewController(4)
	nodes := mkNodes(4, 4)
	allocs := map[TrialID]int{0: 4, 1: 4, 2: 4, 3: 4}
	plan1, err := c.Update(allocs, nodes)
	if err != nil {
		t.Fatal(err)
	}
	// Trial 3 finishes; the rest keep their allocation. Their placements
	// must be untouched.
	delete(allocs, 3)
	plan2, err := c.Update(allocs, nodes)
	if err != nil {
		t.Fatal(err)
	}
	for tr := TrialID(0); tr < 3; tr++ {
		for nid, g := range plan1[tr] {
			if plan2[tr][nid] != g {
				t.Fatalf("trial %d moved: %v -> %v", tr, plan1[tr], plan2[tr])
			}
		}
	}
}

func TestReallocationTriggersMove(t *testing.T) {
	c := NewController(4)
	nodes := mkNodes(4, 4)
	plan1, err := c.Update(map[TrialID]int{0: 2, 1: 2, 2: 2, 3: 2}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	_ = plan1
	// Stage transition: two survivors double their allocation.
	allocs := map[TrialID]int{0: 4, 1: 4}
	plan2, err := c.Update(allocs, nodes)
	if err != nil {
		t.Fatal(err)
	}
	checkPlan(t, plan2, allocs, nodes, 4)
	// Each survivor is co-located on a single node (Table 1's property).
	for tr, asg := range plan2 {
		if asg.Nodes() != 1 {
			t.Fatalf("trial %d not co-located: %v", tr, asg)
		}
	}
}

func TestDisplacementMakesRoom(t *testing.T) {
	c := NewController(4)
	nodes := mkNodes(2, 4)
	// Two small trials land anywhere.
	if _, err := c.Update(map[TrialID]int{10: 1, 11: 1}, nodes); err != nil {
		t.Fatal(err)
	}
	// Now a 4-GPU trial arrives; if the small trials sit on different
	// nodes, one must be displaced so the big trial gets a full node.
	allocs := map[TrialID]int{10: 1, 11: 1, 12: 4}
	plan, err := c.Update(allocs, nodes)
	if err != nil {
		t.Fatal(err)
	}
	checkPlan(t, plan, allocs, nodes, 4)
	if plan[12].Nodes() != 1 {
		t.Fatalf("big trial fragmented: %v", plan[12])
	}
}

func TestLockedTrialNotDisplaced(t *testing.T) {
	c := NewController(4)
	nodes := mkNodes(2, 4)
	if _, err := c.Update(map[TrialID]int{0: 3, 1: 3}, nodes); err != nil {
		t.Fatal(err)
	}
	c.Lock(0)
	c.Lock(1)
	// A 4-GPU trial cannot be placed without displacing a locked trial.
	if _, err := c.Update(map[TrialID]int{0: 3, 1: 3, 2: 4}, nodes); err == nil {
		t.Fatal("placement succeeded despite locked trials blocking")
	}
	// After unlocking, displacement succeeds... but capacity (3+3+4=10)
	// exceeds 8, so shrink trial 1 away first.
	c.Unlock(0)
	c.Unlock(1)
	allocs := map[TrialID]int{0: 3, 2: 4}
	plan, err := c.Update(allocs, nodes)
	if err != nil {
		t.Fatal(err)
	}
	checkPlan(t, plan, allocs, nodes, 4)
}

func TestLockedTrialReallocationErrors(t *testing.T) {
	c := NewController(4)
	nodes := mkNodes(1, 4)
	if _, err := c.Update(map[TrialID]int{0: 2}, nodes); err != nil {
		t.Fatal(err)
	}
	c.Lock(0)
	if _, err := c.Update(map[TrialID]int{0: 4}, nodes); err == nil {
		t.Fatal("locked reallocation accepted")
	}
	if _, err := c.Update(map[TrialID]int{}, nodes); err == nil {
		t.Fatal("locked removal accepted")
	}
}

func TestRemove(t *testing.T) {
	c := NewController(4)
	nodes := mkNodes(1, 4)
	if _, err := c.Update(map[TrialID]int{0: 4}, nodes); err != nil {
		t.Fatal(err)
	}
	c.Remove(0)
	if len(c.Current()) != 0 {
		t.Fatal("Remove left placement behind")
	}
	// Freed capacity is immediately reusable.
	plan, err := c.Update(map[TrialID]int{1: 4}, nodes)
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
	if _, err := c.Update(map[TrialID]int{0: 4, 1: 4}, nodes); err != nil {
		t.Fatal(err)
	}
	// Node 1 is drained away; trial on it must be replaced onto node 0.
	allocs := map[TrialID]int{0: 4}
	plan, err := c.Update(allocs, nodes[:1])
	if err != nil {
		t.Fatal(err)
	}
	checkPlan(t, plan, allocs, nodes[:1], 4)
}

func TestDrainOrderPrefersEmptyNodes(t *testing.T) {
	c := NewController(4)
	nodes := mkNodes(3, 4)
	if _, err := c.Update(map[TrialID]int{0: 4, 1: 2}, nodes); err != nil {
		t.Fatal(err)
	}
	order := c.DrainOrder(nodes)
	if len(order) != 3 {
		t.Fatalf("order %v", order)
	}
	// First node to drain must be the one with no placement.
	used := map[cluster.NodeID]int{}
	for _, a := range c.Current() {
		for nid, g := range a {
			used[nid] += g
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
	if _, err := c.Update(map[TrialID]int{0: 2}, nodes); err != nil {
		t.Fatal(err)
	}
	snap := c.Current()
	snap[0][cluster.NodeID(0)] = 99
	if c.Current()[0][cluster.NodeID(0)] != 2 {
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
		plan, err := c.Update(allocs, nodes)
		if err != nil {
			return true // fragmentation can make co-location impossible
		}
		used := make(map[cluster.NodeID]int)
		for tr, want := range allocs {
			asg := plan[tr]
			if asg.GPUs() != want {
				return false
			}
			if want <= nodeGPUs && asg.Nodes() != 1 {
				return false
			}
			for nid, g := range asg {
				used[nid] += g
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
		plan, err := c.Update(allocs, nodes)
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
		p1, err := c.Update(allocs, nodes)
		if err != nil {
			return false
		}
		p2, err := c.Update(allocs, nodes)
		if err != nil {
			return false
		}
		for tr, a1 := range p1 {
			a2 := p2[tr]
			if len(a1) != len(a2) {
				return false
			}
			for nid, g := range a1 {
				if a2[nid] != g {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPickVictimTieDeterministic forces a displacement whose two victim
// candidates hold the same GPU count and checks that the controller
// breaks the tie by TrialID — the same victim on every run, regardless
// of map iteration order. (Before the (GPUs, TrialID) total order,
// first-seen-in-map-order won and identical inputs produced different
// plans across runs.)
func TestPickVictimTieDeterministic(t *testing.T) {
	var ref Plan
	for run := 0; run < 50; run++ {
		c := NewController(2)
		nodes := mkNodes(2, 2)

		// Epoch 1 fills both nodes so that trial 10 lands on node 0 and
		// trial 98 on node 1.
		first := map[TrialID]int{10: 1, 20: 1, 98: 1, 99: 1}
		if _, err := c.Update(first, nodes); err != nil {
			t.Fatal(err)
		}
		c.Remove(20)
		c.Remove(99)

		// Epoch 2: trial 30 needs a whole node; displacing either trial
		// 10 or trial 98 (1 GPU each — a tie) would free one. The victim
		// must always be trial 10, the smaller ID.
		second := map[TrialID]int{10: 1, 98: 1, 30: 2}
		plan, err := c.Update(second, nodes)
		if err != nil {
			t.Fatal(err)
		}
		checkPlan(t, plan, second, nodes, 2)
		var tenNode, ninetyEightNode cluster.NodeID = -1, -1
		for nid := range plan[10] {
			tenNode = nid
		}
		for nid := range plan[98] {
			ninetyEightNode = nid
		}
		if ninetyEightNode != 1 {
			t.Fatalf("run %d: trial 98 moved to node %d; only trial 10 (smaller ID) should be displaced", run, ninetyEightNode)
		}
		if tenNode != 1 {
			t.Fatalf("run %d: trial 10 on node %d, want displaced to node 1", run, tenNode)
		}
		if ref == nil {
			ref = plan
		} else if !plansEqual(ref, plan) {
			t.Fatalf("run %d: plan differs from run 0:\n  got  %v\n  want %v", run, plan, ref)
		}
	}
}

// plansEqual compares two plans structurally.
func plansEqual(a, b Plan) bool {
	if len(a) != len(b) {
		return false
	}
	for tr, asg := range a {
		other, ok := b[tr]
		if !ok || len(asg) != len(other) {
			return false
		}
		for nid, g := range asg {
			if other[nid] != g {
				return false
			}
		}
	}
	return true
}

func TestMoves(t *testing.T) {
	prev := Plan{
		0: {0: 4},
		1: {1: 2},
		2: {1: 2},
	}
	next := Plan{
		0: {0: 4},       // unchanged
		1: {2: 2},       // moved node
		2: {1: 2, 2: 2}, // grew
		3: {3: 4},       // new trial
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
	if got := Moves(prev, Plan{0: {0: 4}}); got != 0 {
		t.Fatalf("Moves after termination = %d, want 0", got)
	}
}

// refController is a direct, unoptimized formulation of Algorithm 3: it
// deep-clones every preserved gang and every plan it returns, and tracks
// free capacity in maps keyed by NodeID. It is the oracle
// TestUpdateMatchesReference holds Controller.Update to.
type refController struct {
	nodeGPUs int
	current  Plan
	locked   map[TrialID]bool
}

func newRefController(nodeGPUs int) *refController {
	return &refController{nodeGPUs: nodeGPUs, current: make(Plan), locked: make(map[TrialID]bool)}
}

func cloneAssignment(a Assignment) Assignment {
	c := make(Assignment, len(a))
	for n, g := range a {
		c[n] = g
	}
	return c
}

func clonePlan(p Plan) Plan {
	c := make(Plan, len(p))
	for t, a := range p {
		c[t] = cloneAssignment(a)
	}
	return c
}

func (c *refController) Lock(t TrialID)   { c.locked[t] = true }
func (c *refController) Unlock(t TrialID) { delete(c.locked, t) }
func (c *refController) Remove(t TrialID) {
	delete(c.current, t)
	delete(c.locked, t)
}

func (c *refController) Update(allocs map[TrialID]int, nodes []*cluster.Node) (Plan, error) {
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
	plan := make(Plan, len(allocs))
	for t, a := range c.current {
		want, live := allocs[t]
		if !live {
			if c.locked[t] {
				return nil, fmt.Errorf("placement: locked trial %d removed from allocation", t)
			}
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
		} else if c.locked[t] {
			return nil, fmt.Errorf("placement: locked trial %d needs reallocation", t)
		}
	}
	if len(plan) == len(allocs) {
		c.current = plan
		return clonePlan(plan), nil
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
	sortTrials(queue, allocs)
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
			sortTrials(queue, allocs)
		}
	}
	c.current = plan
	return clonePlan(plan), nil
}

func (c *refController) place(t TrialID, want int, plan Plan, free map[cluster.NodeID]int, placedNow map[TrialID]bool) (Assignment, []TrialID, error) {
	asg := make(Assignment)
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

func (c *refController) pickVictim(plan Plan, free map[cluster.NodeID]int, unit int, t TrialID, placedNow map[TrialID]bool) (TrialID, bool) {
	victim := TrialID(-1)
	victimGPUs := int(^uint(0) >> 1)
	for cand, asg := range plan {
		if cand == t || c.locked[cand] || placedNow[cand] {
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

// TestUpdateMatchesReference drives the controller and the deep-cloning
// reference through the same seeded random sequences of Update, Remove,
// Lock/Unlock and node churn (preemption-style loss, replacement, scale
// up), and requires identical plans — and identical success or failure —
// at every Update. Every plan Update returned must also still equal its
// snapshot at the end: sharing assignments must never let a later epoch
// rewrite an earlier plan.
func TestUpdateMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := stats.NewRNG(seed)
		gpn := []int{1, 2, 4, 8}[r.Intn(4)]
		c, ref := NewController(gpn), newRefController(gpn)
		nodes := mkNodes(2+r.Intn(6), gpn)
		nextNode := cluster.NodeID(len(nodes))
		allocs := map[TrialID]int{}
		nextTrial := TrialID(0)
		type kept struct{ got, snap Plan }
		var returned []kept
		updates, failures := 0, 0
		for op := 0; op < 300; op++ {
			switch k := r.Intn(10); {
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
				got, err := c.Update(maps.Clone(allocs), nodes)
				want, werr := ref.Update(maps.Clone(allocs), nodes)
				updates++
				if (err == nil) != (werr == nil) {
					t.Fatalf("seed %d op %d: error %v, reference %v", seed, op, err, werr)
				}
				if err != nil {
					failures++
					continue
				}
				if !plansEqual(got, want) {
					t.Fatalf("seed %d op %d: plan %v, reference %v", seed, op, got, want)
				}
				returned = append(returned, kept{got, clonePlan(got)})
			case k < 7: // a trial finishes or is terminated
				id := TrialID(r.Intn(int(nextTrial) + 1))
				c.Remove(id)
				ref.Remove(id)
				delete(allocs, id)
			case k < 8:
				id := TrialID(r.Intn(int(nextTrial) + 1))
				if r.Intn(2) == 0 {
					c.Lock(id)
					ref.Lock(id)
				} else {
					c.Unlock(id)
					ref.Unlock(id)
				}
			default: // node churn
				if r.Intn(2) == 0 && len(nodes) > 1 {
					i := r.Intn(len(nodes))
					nodes = append(nodes[:i:i], nodes[i+1:]...)
				} else {
					nodes = append(nodes[:len(nodes):len(nodes)], &cluster.Node{ID: nextNode, GPUs: gpn})
					nextNode++
				}
			}
		}
		if updates == failures {
			t.Fatalf("seed %d: no Update succeeded", seed)
		}
		for i, p := range returned {
			if !plansEqual(p.got, p.snap) {
				t.Fatalf("seed %d: plan %d changed after it was returned: %v, was %v", seed, i, p.got, p.snap)
			}
		}
	}
}

// TestReturnedPlanNotAliased: a plan Update returned stays exactly as it
// was through later Remove and Update calls — including ones that keep
// its gangs, displace them, or drop their nodes. The executor's
// Moves(prev, next) migration count reads the previous plan after the
// next Update, so any aliasing would silently zero it.
func TestReturnedPlanNotAliased(t *testing.T) {
	c := NewController(4)
	nodes := mkNodes(3, 4)
	prev, err := c.Update(map[TrialID]int{0: 2, 1: 2, 2: 1, 3: 1}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	snap := clonePlan(prev)

	c.Remove(2)
	c.Remove(0)
	if !plansEqual(prev, snap) {
		t.Fatalf("Remove changed a returned plan: %v, was %v", prev, snap)
	}
	// Trial 1 keeps its gang, trial 4 needs a whole node (displacing trial
	// 3 if it sits in the way), and node 2 is gone.
	next, err := c.Update(map[TrialID]int{1: 2, 3: 1, 4: 4}, nodes[:2])
	if err != nil {
		t.Fatal(err)
	}
	if !plansEqual(prev, snap) {
		t.Fatalf("Update changed a returned plan: %v, was %v", prev, snap)
	}
	if got, want := Moves(prev, next), Moves(snap, next); got != want || got == 0 {
		t.Fatalf("Moves(prev, next) = %d, want %d (> 0)", got, want)
	}
	if !next[1].equal(prev[1]) {
		t.Fatalf("trial 1 moved: %v -> %v", prev[1], next[1])
	}
	c.Remove(1)
	if len(next) != 3 {
		t.Fatalf("Remove after Update shrank the returned plan to %v", next)
	}
}
