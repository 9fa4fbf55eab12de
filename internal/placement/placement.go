// Package placement implements RubberBand's placement controller (§4.4,
// Algorithm 3): it converts per-trial GPU allocations into physical
// assignments of trial workers to nodes, maximizing spatial locality.
//
// Invariants the controller maintains:
//
//   - A trial whose allocation fits on one node is placed entirely on one
//     node (co-location); larger trials are packed onto a minimal set of
//     nodes, taking whole nodes where possible.
//   - Assignments of trials whose allocation did not change are preserved
//     across scheduling epochs on a best-effort basis.
//   - Trials whose reassignment has been issued but not yet confirmed by
//     their workers are locked: their resources cannot be perturbed.
//   - When a trial cannot be placed on free capacity, already-placed
//     smaller, unlocked trials are displaced to make room; displaced
//     trials re-enter the queue for their own placement attempt.
package placement

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cluster"
)

// TrialID identifies a trial within one experiment.
type TrialID int

// Slot is the share of a trial's gang on one node.
type Slot struct {
	Node cluster.NodeID
	GPUs int
}

// Assignment is one trial's physical placement: one slot per node it
// uses, sorted by node. No holder ever edits one.
type Assignment []Slot

// GPUs returns the total GPUs in the assignment.
func (a Assignment) GPUs() int {
	total := 0
	for _, s := range a {
		total += s.GPUs
	}
	return total
}

// Nodes returns the number of distinct nodes the assignment spans.
func (a Assignment) Nodes() int { return len(a) }

// Plan holds each trial's assignment, indexed by TrialID; nil marks a
// trial without one.
type Plan []Assignment

// Moves counts the trials in next whose gang differs from their gang in
// prev (absent, or placed on different nodes/GPU counts) — the migration
// cost of transitioning between two placement plans. The executor reports
// it when a replanned allocation lands at a stage boundary.
func Moves(prev, next Plan) int {
	moved := 0
	for t, asg := range next {
		if asg != nil && (t >= len(prev) || !slices.Equal(asg, prev[t])) {
			moved++
		}
	}
	return moved
}

// Controller computes placement plans over scheduling epochs. It owns
// every buffer an epoch needs, so a warm Update allocates only the
// assignments of the trials it (re)places.
type Controller struct {
	nodeGPUs int
	// current is the latest plan; spare is the buffer the next Update
	// builds into, swapped with current on success.
	current, spare Plan
	locked         []bool
	// cols are the nodes of the latest successful Update, with their free
	// GPUs kept in step with current: Remove returns a trial's slots, so
	// the next Update only applies what changed (see nodes). next is the
	// buffer an Update builds the new columns in, swapped with cols on
	// success, so a failed Update leaves them untouched.
	cols, next nodeCols
	// Update's scratch: the placement queue and the trials placed this
	// epoch.
	queue     []TrialID
	placedNow []bool
	// slots and spareSlots back the assignments of current and spare:
	// Update carves every assignment of the plan it builds, preserved
	// gangs copied, from spareSlots, and commit swaps the two. A plan's
	// assignments therefore stay put until the Update after next, and a
	// failed Update leaves current's untouched.
	slots, spareSlots []Slot
	// loads and drain are DrainOrder's scratch: the nodes' loads and the
	// order it returns.
	loads []nodeLoad
	drain []cluster.NodeID
}

// nodeCols are the live nodes' columns in one slab of three equal parts:
// their IDs in ascending order, then each node's capacity, then its free
// GPUs, by position among the IDs (see pos). One slab keeps a column set
// to one allocation and one slice header. It is sized by the live node
// count, however large the IDs grow under churn.
type nodeCols []int

// split returns the ID, capacity and free-GPU columns.
func (n nodeCols) split() (ids, caps, free []int) {
	k := len(n) / 3
	return n[:k], n[k : 2*k], n[2*k:]
}

// Reset makes c an empty controller for nodes with nodeGPUs accelerators
// each, with no placements and nothing locked, keeping its buffers' capacity: a
// recycled controller's first epochs carve their plans from the storage
// its last run grew. It panics if nodeGPUs < 1.
func (c *Controller) Reset(nodeGPUs int) {
	if nodeGPUs < 1 {
		panic(fmt.Sprintf("placement: nodeGPUs = %d", nodeGPUs))
	}
	clear(c.current)
	clear(c.spare)
	*c = Controller{
		nodeGPUs: nodeGPUs,
		current:  c.current[:0], spare: c.spare[:0], locked: c.locked[:0],
		cols: c.cols[:0], next: c.next[:0],
		queue: c.queue[:0], placedNow: c.placedNow[:0],
		slots: c.slots[:0], spareSlots: c.spareSlots[:0],
		loads: c.loads[:0], drain: c.drain[:0],
	}
}

// Lock marks a trial's placement as in-flight: it cannot be displaced
// until Unlock (§4.4.1 "reserved" list).
func (c *Controller) Lock(t TrialID) { //rbvet:ignore unreached — the §4.4.1 reserved list: the executor places only at stage barriers, where no reassignment is in flight, so nothing locks yet; the placement tests specify the displacement exclusion through it
	if n := int(t) + 1; n > len(c.locked) {
		c.locked = append(c.locked, make([]bool, n-len(c.locked))...)
	}
	c.locked[t] = true
}

// Unlock clears a trial's in-flight mark.
func (c *Controller) Unlock(t TrialID) {
	if int(t) < len(c.locked) {
		c.locked[t] = false
	}
}

func (c *Controller) isLocked(t TrialID) bool {
	return int(t) < len(c.locked) && c.locked[t]
}

// Remove drops a trial (terminated or finished) from the plan, freeing its
// resources for the next Update. It edits the current plan in place.
func (c *Controller) Remove(t TrialID) {
	if int(t) < len(c.current) {
		c.cols.release(c.current[t])
		c.current[t] = nil
	}
	c.Unlock(t)
}

// Update computes a placement plan satisfying allocs (GPUs by TrialID,
// negative for absent trials) over the given nodes, implementing
// Algorithm 3. Trials already placed with an unchanged allocation keep
// their assignment; others are (re)placed best-fit in descending
// allocation order, displacing smaller unlocked trials when necessary;
// absent trials are dropped. The returned plan, indexed like allocs,
// becomes the current plan and stays valid until the next Update or
// Remove. Update builds into a spare buffer, so a failed Update leaves
// the current plan untouched. An error, naming the lowest TrialID at
// fault, is returned if an allocation is zero, demand exceeds capacity
// or a locked trial's allocation changed. Node IDs are distinct, in any
// order.
//
// Free capacity is carried over from the previous epoch rather than
// rebuilt: the nodes' columns start from the current plan's, a gang that
// is not preserved returns its slots, and only a changed node set costs
// a merge (see nodes).
func (c *Controller) Update(allocs []int32, nodes []*cluster.Node) (Plan, error) {
	demand, live, slots := 0, 0, 0
	for t, g := range allocs {
		if g == 0 {
			return nil, fmt.Errorf("placement: trial %d allocated %d GPUs", t, g)
		}
		if g > 0 {
			demand += int(g)
			live++
			slots += (int(g) + c.nodeGPUs - 1) / c.nodeGPUs
		}
	}
	capacity := 0
	for _, n := range nodes {
		capacity += n.GPUs
	}
	if demand > capacity {
		return nil, fmt.Errorf("placement: demand %d GPUs exceeds capacity %d", demand, capacity)
	}
	same := c.nodes(nodes)

	// Start from assignments that can be preserved: trials present in the
	// current plan with an unchanged allocation and whose nodes all still
	// exist (remove_discrepancies). Every other gang returns its slots.
	// The current plan's slots all lie on c.cols's nodes, so on an
	// unchanged node set every gang is on live nodes.
	c.spare = resize(c.spare, len(allocs))
	if cap(c.spareSlots) < slots {
		// Room for every gang at its fewest slots: unless a trial is
		// displaced and placed again, the plan fits.
		c.spareSlots = make([]Slot, 0, slots)
	}
	c.spareSlots = c.spareSlots[:0]
	plan := c.spare
	kept := 0
	for i, a := range c.current {
		if a == nil {
			continue
		}
		t, want := TrialID(i), -1
		if i < len(allocs) {
			want = int(allocs[i])
		}
		held, onLive := 0, true
		for _, s := range a {
			held += s.GPUs
			onLive = onLive && (same || c.next.pos(s.Node) >= 0)
		}
		switch {
		case held == want && onLive:
			plan[t] = append(c.carve(len(a)), a...)
			kept++
		case !c.isLocked(t):
			c.next.release(a)
		case want < 0:
			return nil, fmt.Errorf("placement: locked trial %d removed from allocation", t)
		default:
			return nil, fmt.Errorf("placement: locked trial %d needs reallocation", t)
		}
	}

	// Fast path: everything preserved.
	if kept == live {
		c.commit(plan)
		return plan, nil
	}

	// Free capacity now excludes exactly the preserved slots. It can be
	// negative only where a node's capacity shrank under them.
	ids, _, free := c.next.split()
	for j, f := range free {
		if f < 0 {
			return nil, fmt.Errorf("placement: preserved plan oversubscribes node %d", ids[j])
		}
	}

	// Queue of trials to place, largest first (Algorithm 3's
	// sort_by_alloc descending). Trials placed during this epoch cannot
	// themselves be displaced — each queued trial gets exactly one
	// placement opportunity, which guarantees termination.
	c.queue = c.queue[:0]
	for t, g := range allocs {
		if g >= 0 && plan[t] == nil {
			c.queue = append(c.queue, TrialID(t))
		}
	}
	sortTrials(c.queue, allocs)

	c.placedNow = resize(c.placedNow, len(allocs))
	for head := 0; head < len(c.queue); head++ {
		t, queued := c.queue[head], len(c.queue)
		asg, err := c.place(t, int(allocs[t]), plan)
		if err != nil {
			return nil, err
		}
		plan[t] = asg
		c.placedNow[t] = true
		if len(c.queue) > queued {
			sortTrials(c.queue[head+1:], allocs)
		}
	}
	c.commit(plan)
	return plan, nil
}

// commit makes plan the current plan and the columns built for it the
// current columns.
func (c *Controller) commit(plan Plan) {
	c.current, c.spare = plan, c.current
	c.cols, c.next = c.next, c.cols
	c.slots, c.spareSlots = c.spareSlots, c.slots
}

// carve returns an empty assignment with room for n slots, carved from
// the storage of the plan being built, which Update sizes for the
// plan's gangs. When the storage is full (a displaced trial placed
// again) it moves on to a fresh array at least twice as large;
// assignments already carved keep the old one.
//
//rbvet:noalloc
func (c *Controller) carve(n int) Assignment {
	b := c.spareSlots
	if len(b)+n > cap(b) {
		//rbvet:ignore noalloc — cold path: grows until the storage holds an epoch's widest plan
		b = make([]Slot, 0, max(2*cap(b), n))
	}
	c.spareSlots = b[:len(b)+n]
	return b[len(b) : len(b) : len(b)+n]
}

// nodes fills c.next with the columns of nodes and the free capacity the
// current plan leaves on them, and reports whether the node set is the
// one c.cols holds: the same IDs and capacities, in ascending order. Then
// the columns are copied; otherwise carry merges them with c.cols. Gangs
// on removed nodes are for Update to drop.
func (c *Controller) nodes(nodes []*cluster.Node) bool {
	ids, caps, _ := c.cols.split()
	same := len(nodes) == len(ids)
	for i := 0; same && i < len(nodes); i++ {
		same = int(nodes[i].ID) == ids[i] && nodes[i].GPUs == caps[i]
	}
	if same {
		c.next = append(c.next[:0], c.cols...)
		return true
	}
	c.next = resize(c.next, 3*len(nodes))
	c.next.carry(nodes, c.cols)
	return false
}

// carry fills the columns, already sized for nodes, with the nodes' IDs
// in ascending order and their capacities, and carries free capacity over
// from prev: a node among prev keeps the GPUs prev's plan uses on it, an
// added node starts empty.
//
//rbvet:noalloc
func (n nodeCols) carry(nodes []*cluster.Node, prev nodeCols) {
	ids, caps, free := n.split()
	for i, node := range nodes {
		ids[i] = int(node.ID)
	}
	if !slices.IsSorted(ids) {
		slices.Sort(ids)
	}
	for _, node := range nodes {
		caps[n.pos(node.ID)] = node.GPUs
	}
	prevIDs, prevCaps, prevFree := prev.split()
	i := 0
	for j, id := range ids {
		for i < len(prevIDs) && prevIDs[i] < id {
			i++
		}
		free[j] = caps[j]
		if i < len(prevIDs) && prevIDs[i] == id {
			free[j] -= prevCaps[i] - prevFree[i]
		}
	}
}

// pos returns the position of node id in the columns, or -1 when id is
// not among them.
//
//rbvet:noalloc
func (n nodeCols) pos(id cluster.NodeID) int {
	ids, _, _ := n.split()
	if i, ok := slices.BinarySearch(ids, int(id)); ok {
		return i
	}
	return -1
}

// release returns a gang's slots to free capacity, skipping slots on
// nodes no longer among the columns.
//
//rbvet:noalloc
func (n nodeCols) release(a Assignment) {
	_, _, free := n.split()
	for _, s := range a {
		if i := n.pos(s.Node); i >= 0 {
			free[i] += s.GPUs
		}
	}
}

// resize returns buf with length n and every element zero, reusing its
// storage when it is large enough.
func resize[S ~[]E, E any](buf S, n int) S {
	if cap(buf) < n {
		return make(S, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// place assigns want GPUs to trial t, mutating plan and c.next's free GPUs. It may
// displace smaller trials — excluding locked trials and trials already
// placed this epoch — which are removed from plan (their capacity returned
// to c.next) and appended to c.queue for their own placement attempt.
// Nodes hold nodeGPUs GPUs, so each unit lands on a node of its own.
func (c *Controller) place(t TrialID, want int, plan Plan) (Assignment, error) {
	ids, _, free := c.next.split()
	asg := c.carve((want + c.nodeGPUs - 1) / c.nodeGPUs)
	for remaining := want; remaining > 0; {
		// The unit is a full node for whole-node chunks, or the entire
		// remainder (which must then be co-located on a single node).
		unit := min(remaining, c.nodeGPUs)
		at, ok := bestFit(free, unit)
		if !ok {
			// Displace: free the smallest displaceable trial whose
			// removal opens a node with enough room.
			victim, vok := c.pickVictim(plan, unit, t)
			if !vok {
				return nil, fmt.Errorf("placement: cannot fit %d GPUs for trial %d", unit, t)
			}
			c.next.release(plan[victim])
			plan[victim] = nil
			c.queue = append(c.queue, victim)
			continue
		}
		free[at] -= unit
		asg = append(asg, Slot{Node: cluster.NodeID(ids[at]), GPUs: unit})
		remaining -= unit
	}
	slices.SortFunc(asg, func(a, b Slot) int { return cmp.Compare(a.Node, b.Node) })
	return asg, nil
}

// bestFit returns the position, in the ID-ordered node columns, of the
// node with the least free capacity that still fits unit GPUs, the
// smallest NodeID among equals.
//
//rbvet:noalloc
func bestFit(free []int, unit int) (int, bool) {
	best, bestFree := -1, int(^uint(0)>>1)
	for i, f := range free {
		if f >= unit && f < bestFree {
			best, bestFree = i, f
		}
	}
	return best, best >= 0
}

// pickVictim chooses the smallest displaceable trial (other than t) whose
// removal would let some node fit unit GPUs, breaking equal-GPU ties by
// the smallest TrialID (mirroring bestFit and sortTrials). Locked trials
// and trials placed this epoch are not displaceable.
//
//rbvet:noalloc
func (c *Controller) pickVictim(plan Plan, unit int, t TrialID) (TrialID, bool) {
	_, _, free := c.next.split()
	victim := TrialID(-1)
	victimGPUs := int(^uint(0) >> 1)
	for i, asg := range plan {
		cand := TrialID(i)
		if asg == nil || cand == t || c.isLocked(cand) || c.placedNow[cand] {
			continue
		}
		// Candidates come in TrialID order, so an equal-GPU candidate
		// never beats the victim already chosen.
		g := asg.GPUs()
		if g >= victimGPUs {
			continue
		}
		// Would removing cand open enough room somewhere?
		for _, s := range asg {
			if free[c.next.pos(s.Node)]+s.GPUs >= unit {
				victim, victimGPUs = cand, g
				break
			}
		}
	}
	return victim, victim >= 0
}

// sortTrials orders trials by allocation descending, breaking ties by ID
// for determinism.
func sortTrials(ts []TrialID, allocs []int32) {
	slices.SortFunc(ts, func(a, b TrialID) int {
		if c := cmp.Compare(allocs[b], allocs[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}

// NodesNeeded returns the minimum node count that lets trials trials of
// gpusPerTrial GPUs each be placed with full co-location: sub-node trials
// never split across nodes, super-node trials take whole nodes plus a
// shared node for any remainder. This is the cluster size the executor
// provisions for a stage, and the instance count the simulator prices.
func NodesNeeded(trials, gpusPerTrial, nodeGPUs int) int {
	if trials < 1 || gpusPerTrial < 1 || nodeGPUs < 1 {
		panic(fmt.Sprintf("placement: NodesNeeded(%d, %d, %d)", trials, gpusPerTrial, nodeGPUs))
	}
	if gpusPerTrial <= nodeGPUs {
		perNode := nodeGPUs / gpusPerTrial
		return (trials + perNode - 1) / perNode
	}
	whole := gpusPerTrial / nodeGPUs
	rem := gpusPerTrial % nodeGPUs
	n := trials * whole
	if rem > 0 {
		remPerNode := nodeGPUs / rem
		n += (trials + remPerNode - 1) / remPerNode
	}
	return n
}

// nodeLoad is one node's placed GPUs, DrainOrder's sort key.
type nodeLoad struct {
	id   cluster.NodeID
	used int
}

// DrainOrder returns the ready nodes ordered so that draining them in
// sequence frees whole machines fastest: emptiest first. Used before
// cluster scale-down to bin-pack trials away from the nodes about to be
// released. The order lives in c's scratch: it is valid until the next
// DrainOrder.
//
//rbvet:noalloc
func (c *Controller) DrainOrder(nodes []*cluster.Node) []cluster.NodeID {
	loads := c.loads[:0]
	for _, n := range nodes {
		loads = append(loads, nodeLoad{id: n.ID})
	}
	c.loads = loads
	slices.SortFunc(loads, func(a, b nodeLoad) int { return cmp.Compare(a.id, b.id) })
	for _, a := range c.current {
		for _, s := range a {
			if i, ok := slices.BinarySearchFunc(loads, s.Node, func(l nodeLoad, id cluster.NodeID) int { return cmp.Compare(l.id, id) }); ok {
				loads[i].used += s.GPUs
			}
		}
	}
	slices.SortFunc(loads, func(a, b nodeLoad) int {
		if c := cmp.Compare(a.used, b.used); c != 0 {
			return c
		}
		return cmp.Compare(b.id, a.id) // prefer releasing newest nodes on ties
	})
	ids := c.drain[:0]
	for _, l := range loads {
		ids = append(ids, l.id)
	}
	c.drain = ids
	return ids
}
