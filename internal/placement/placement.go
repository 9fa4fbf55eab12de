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
//   - When a trial cannot be placed on free capacity, already-placed
//     smaller trials are displaced to make room; displaced trials
//     re-enter the queue for their own placement attempt.
//
// The executor places only at stage barriers, where no reassignment is
// in flight, so the controller keeps no §4.4.1 reserved list.
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
// every buffer an epoch needs, so a warm Update allocates nothing.
type Controller struct {
	nodeGPUs int
	// current is the latest plan, which Update edits in place and Remove
	// drops trials from. Its entries past its length, up to its
	// capacity, are nil.
	current Plan
	// cols are the nodes of the latest successful Update, with their free
	// GPUs kept in step with current: Remove returns a trial's slots, so
	// the next Update only applies what changed (see nodes).
	cols nodeCols
	// gangs holds each trial's slot storage, carved from slab (carve).
	gangs []gangStore
	slab  []Slot
	// Update's scratch: the placement queue, the trials placed this
	// epoch, and the gangs it dropped, which a failed Update restores.
	queue     []TrialID
	placedNow []bool
	undo      []edit
	// loads and drain are DrainOrder's scratch: the nodes' loads and the
	// order it returns.
	loads []nodeLoad
	drain []cluster.NodeID
}

// gangStore is one trial's slot storage: two halves of len(buf)/2 slots
// each, its gangs written to them in turn, the latest to half side.
type gangStore struct {
	buf  []Slot
	side int
}

// edit is one gang an Update dropped: trial t held prev.
type edit struct {
	t    TrialID
	prev Assignment
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
// each, with no placements, keeping its buffers' capacity: a
// recycled controller's first epochs carve their plans from the storage
// its last run grew. It panics if nodeGPUs < 1.
func (c *Controller) Reset(nodeGPUs int) {
	if nodeGPUs < 1 {
		panic(fmt.Sprintf("placement: nodeGPUs = %d", nodeGPUs))
	}
	clear(c.current)
	clear(c.gangs)
	*c = Controller{
		nodeGPUs: nodeGPUs,
		current:  c.current[:0], cols: c.cols[:0],
		gangs: c.gangs[:0], slab: c.slab[:0],
		queue: c.queue[:0], placedNow: c.placedNow[:0], undo: c.undo[:0],
		loads: c.loads[:0], drain: c.drain[:0],
	}
}

// Remove drops a trial (terminated or finished) from the plan, freeing its
// resources for the next Update. It edits the current plan in place.
func (c *Controller) Remove(t TrialID) {
	if int(t) < len(c.current) {
		c.cols.release(c.current[t])
		c.current[t] = nil
	}
}

// Update computes a placement plan satisfying allocs (GPUs by TrialID,
// negative for absent trials) over the given nodes, implementing
// Algorithm 3. Trials already placed with an unchanged allocation keep
// their assignment; others are (re)placed best-fit in descending
// allocation order, displacing smaller trials when necessary;
// absent trials are dropped. The returned plan, indexed like allocs,
// becomes the current plan and stays valid until the next Update or
// Remove. An error, naming the lowest TrialID at fault, is returned if
// an allocation is zero or demand exceeds capacity; a failed Update
// leaves the current plan as it was. Node IDs are distinct, in any order.
//
// Update edits the current plan in place: only the gangs that are not
// preserved return their slots and are placed again, so a queue
// hand-off copies no preserved gang, and a failed Update undoes its
// placements and the drops it logged (see rollback). Free capacity is carried over
// from the previous epoch rather than rebuilt, and only a changed node
// set costs a merge (see nodes).
func (c *Controller) Update(allocs []int32, nodes []*cluster.Node) (Plan, error) {
	demand := 0
	for t, g := range allocs {
		if g == 0 {
			return nil, fmt.Errorf("placement: trial %d allocated %d GPUs", t, g)
		}
		demand += max(int(g), 0)
	}
	capacity := 0
	for _, n := range nodes {
		capacity += n.GPUs
	}
	if demand > capacity {
		return nil, fmt.Errorf("placement: demand %d GPUs exceeds capacity %d", demand, capacity)
	}
	cols, same := c.nodes(nodes)

	// Keep the assignments that can be preserved: trials present in the
	// current plan with an unchanged allocation and whose nodes all still
	// exist (remove_discrepancies). Every other gang is dropped and
	// returns its slots, and every trial of allocs left without a gang
	// joins the queue of trials to place. The current plan's slots all
	// lie on c.cols's nodes, so on an unchanged node set every gang is
	// on live nodes.
	n := len(c.current)
	c.current = extend(c.current, len(allocs))
	c.gangs = extend(c.gangs, len(allocs))
	c.undo, c.queue = c.undo[:0], c.queue[:0]
	for i, a := range c.current {
		t, want := TrialID(i), -1
		if i < len(allocs) {
			want = int(allocs[i])
		}
		if a != nil {
			held, onLive := 0, true
			for _, s := range a {
				held += s.GPUs
				onLive = onLive && (same || cols.pos(s.Node) >= 0)
			}
			if held == want && onLive {
				continue
			}
			c.drop(cols, c.current, t)
		}
		if want > 0 {
			c.queue = append(c.queue, t)
		}
	}
	// Every trial past allocs was dropped.
	plan := c.current[:len(allocs)]

	// Free capacity now excludes exactly the preserved slots. It can be
	// negative only where a node's capacity shrank under them, which
	// fails the Update unless every gang was preserved.
	ids, _, free := cols.split()
	for j, f := range free {
		if f < 0 && len(c.queue) > 0 {
			return c.rollback(cols, n, 0, fmt.Errorf("placement: preserved plan oversubscribes node %d", ids[j]))
		}
	}

	// Place the queue largest first (Algorithm 3's sort_by_alloc
	// descending). Trials placed during this epoch cannot themselves be
	// displaced — each queued trial gets exactly one placement
	// opportunity, which guarantees termination.
	sortTrials(c.queue, allocs)

	c.placedNow = resize(c.placedNow, len(allocs))
	for head := 0; head < len(c.queue); head++ {
		t, queued := c.queue[head], len(c.queue)
		asg, err := c.place(cols, t, int(allocs[t]), plan)
		if err != nil {
			return c.rollback(cols, n, head+1, err)
		}
		plan[t] = asg
		c.placedNow[t] = true
		if len(c.queue) > queued {
			sortTrials(c.queue[head+1:], allocs)
		}
	}
	c.current = plan
	if !same {
		c.cols = append(c.cols[:0], cols...)
	}
	return plan, nil
}

// drop takes trial t's gang out of plan, returning its slots to cols,
// and logs it.
func (c *Controller) drop(cols nodeCols, plan Plan, t TrialID) {
	c.undo = append(c.undo, edit{t, plan[t]})
	cols.release(plan[t])
	plan[t] = nil
}

// rollback undoes a failed Update and returns err. It drops the gangs
// of the first placed trials of the queue, each handing its storage
// half back (see carve), then takes the logged gangs back, latest
// first, so the current plan, cut back to its n entries, and the
// current columns are as the last Update left them.
func (c *Controller) rollback(cols nodeCols, n, placed int, err error) (Plan, error) {
	for _, t := range c.queue[:placed] {
		c.gangs[t].side ^= 1
		cols.release(c.current[t])
		c.current[t] = nil
	}
	for i := len(c.undo) - 1; i >= 0; i-- {
		e := c.undo[i]
		cols.add(e.prev, -1)
		c.current[e.t] = e.prev
	}
	c.current = c.current[:n]
	return nil, err
}

// carve returns an empty assignment with room for n slots for trial t,
// in the half of its storage its latest gang does not use. So the gangs
// of the returned plan, and of any copy of it, stay intact through the
// next Update, failed or not: a trial is placed at most once per Update.
// A trial whose gang outgrows its halves moves on to a fresh pair from
// the slab, which moves on to a fresh array when full, at least twice as
// large and with room for a 1-slot pair per trial; storage carved
// earlier keeps the old one.
//
//rbvet:noalloc
func (c *Controller) carve(t TrialID, n int) Assignment {
	g := &c.gangs[t]
	if len(g.buf) < 2*n {
		b := c.slab
		if len(b)+2*n > cap(b) {
			//rbvet:ignore noalloc — cold path: grows until the slab holds a run's gangs
			b = make([]Slot, 0, max(2*cap(b), 2*n, 2*len(c.gangs)))
		}
		c.slab = b[:len(b)+2*n]
		g.buf = b[len(b) : len(b)+2*n : len(b)+2*n]
	}
	g.side ^= 1
	lo := g.side * len(g.buf) / 2
	return g.buf[lo : lo : lo+n]
}

// nodes returns the columns Update works on and whether they are c.cols
// itself: they are when nodes is the node set c.cols holds, the same IDs
// and capacities in ascending order. Otherwise carry builds the columns
// of nodes past c.cols's end, in the same storage, so a failed Update
// leaves c.cols untouched. Gangs on removed nodes are for Update to drop.
func (c *Controller) nodes(nodes []*cluster.Node) (nodeCols, bool) {
	ids, caps, _ := c.cols.split()
	same := len(nodes) == len(ids)
	for i := 0; same && i < len(nodes); i++ {
		same = int(nodes[i].ID) == ids[i] && nodes[i].GPUs == caps[i]
	}
	if same {
		return c.cols, true
	}
	k, m := len(c.cols), 3*len(nodes)
	if cap(c.cols) < k+m {
		c.cols = append(make(nodeCols, 0, k+m), c.cols...)
	}
	cols := c.cols[k : k+m]
	cols.carry(nodes, c.cols)
	return cols, false
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
func (n nodeCols) release(a Assignment) { n.add(a, 1) }

// add adds sign times each slot's GPUs to its node's free capacity,
// skipping slots on nodes not among the columns.
//
//rbvet:noalloc
func (n nodeCols) add(a Assignment, sign int) {
	_, _, free := n.split()
	for _, s := range a {
		if i := n.pos(s.Node); i >= 0 {
			free[i] += sign * s.GPUs
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

// extend returns buf with length at least n, its elements kept and the
// ones it adds zero: buf's elements past its length, up to its
// capacity, must be zero.
func extend[S ~[]E, E any](buf S, n int) S {
	return slices.Grow(buf, max(n-len(buf), 0))[:max(n, len(buf))]
}

// place assigns want GPUs to trial t, mutating plan and cols's free GPUs.
// It may displace smaller trials — excluding trials already placed this
// epoch — which are dropped from plan and appended
// to c.queue for their own placement attempt. Nodes hold nodeGPUs GPUs,
// so each unit lands on a node of its own. On failure the units already
// placed return their GPUs.
func (c *Controller) place(cols nodeCols, t TrialID, want int, plan Plan) (Assignment, error) {
	ids, _, free := cols.split()
	asg := c.carve(t, (want+c.nodeGPUs-1)/c.nodeGPUs)
	for remaining := want; remaining > 0; {
		// The unit is a full node for whole-node chunks, or the entire
		// remainder (which must then be co-located on a single node).
		unit := min(remaining, c.nodeGPUs)
		at, ok := bestFit(free, unit)
		if !ok {
			// Displace: free the smallest displaceable trial whose
			// removal opens a node with enough room.
			victim, vok := c.pickVictim(cols, plan, unit, t)
			if !vok {
				cols.release(asg)
				return nil, fmt.Errorf("placement: cannot fit %d GPUs for trial %d", unit, t)
			}
			c.drop(cols, plan, victim)
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
// the smallest TrialID (mirroring bestFit and sortTrials). Trials placed
// this epoch are not displaceable.
//
//rbvet:noalloc
func (c *Controller) pickVictim(cols nodeCols, plan Plan, unit int, t TrialID) (TrialID, bool) {
	_, _, free := cols.split()
	victim := TrialID(-1)
	victimGPUs := int(^uint(0) >> 1)
	for i, asg := range plan {
		cand := TrialID(i)
		if asg == nil || cand == t || c.placedNow[cand] {
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
			if free[cols.pos(s.Node)]+s.GPUs >= unit {
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
