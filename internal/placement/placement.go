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
	"maps"
	"slices"
	"sort"

	"repro/internal/cluster"
)

// TrialID identifies a trial within one experiment.
type TrialID int

// Assignment is one trial's physical placement: GPUs held per node.
// Assignments are immutable once a Controller.Update has returned them:
// plans share the gangs they preserve, so every holder treats them as
// read-only.
type Assignment map[cluster.NodeID]int

// GPUs returns the total GPUs in the assignment.
func (a Assignment) GPUs() int {
	total := 0
	for _, g := range a {
		total += g
	}
	return total
}

// Nodes returns the number of distinct nodes the assignment spans.
func (a Assignment) Nodes() int { return len(a) }

// Plan maps trials to their assignments. A plan Update returns is shared
// with the Controller and read-only for both: later epochs build new
// maps, and Remove edits a copy.
type Plan map[TrialID]Assignment

// equal reports whether two assignments hold the same GPUs on the same
// nodes.
func (a Assignment) equal(b Assignment) bool {
	if len(a) != len(b) {
		return false
	}
	for n, g := range a {
		if b[n] != g {
			return false
		}
	}
	return true
}

// Moves counts the trials in next whose gang differs from their gang in
// prev (absent, or placed on different nodes/GPU counts) — the migration
// cost of transitioning between two placement plans. The executor reports
// it when a replanned allocation lands at a stage boundary.
func Moves(prev, next Plan) int {
	moved := 0
	for t, asg := range next {
		if !asg.equal(prev[t]) {
			moved++
		}
	}
	return moved
}

// Controller computes placement plans over scheduling epochs.
type Controller struct {
	nodeGPUs int
	// current is the latest plan. Update hands the same map to its caller,
	// so it is shared (and copied on Remove's first edit) until the next
	// Update replaces it.
	current Plan
	shared  bool
	locked  map[TrialID]bool
}

// NewController returns a controller for nodes with nodeGPUs accelerators
// each. It panics if nodeGPUs < 1.
func NewController(nodeGPUs int) *Controller {
	if nodeGPUs < 1 {
		panic(fmt.Sprintf("placement: nodeGPUs = %d", nodeGPUs))
	}
	return &Controller{
		nodeGPUs: nodeGPUs,
		current:  make(Plan),
		locked:   make(map[TrialID]bool),
	}
}

// Current returns a deep copy of the current placement plan, which the
// caller may modify. It is an inspection accessor, off the scheduling
// path.
func (c *Controller) Current() Plan {
	out := make(Plan, len(c.current))
	for t, a := range c.current {
		out[t] = maps.Clone(a)
	}
	return out
}

// Lock marks a trial's placement as in-flight: it cannot be displaced
// until Unlock (§4.4.1 "reserved" list).
func (c *Controller) Lock(t TrialID) { c.locked[t] = true }

// Unlock clears a trial's in-flight mark.
func (c *Controller) Unlock(t TrialID) { delete(c.locked, t) }

// Remove drops a trial (terminated or finished) from the plan, freeing its
// resources for the next Update.
func (c *Controller) Remove(t TrialID) {
	if _, ok := c.current[t]; ok {
		if c.shared {
			c.current, c.shared = maps.Clone(c.current), false
		}
		delete(c.current, t)
	}
	delete(c.locked, t)
}

// Update computes a placement plan satisfying allocs (trial -> GPUs) over
// the given nodes, implementing Algorithm 3. Trials already placed with an
// unchanged allocation keep their assignment; others are (re)placed
// best-fit in descending allocation order, displacing smaller unlocked
// trials when necessary; trials absent from allocs are dropped. It
// returns the new plan, which also becomes the controller's current
// plan. Later Remove and Update calls never change a returned plan:
// Remove copies the plan before its first edit, and Update builds a new
// one, sharing the preserved assignments rather than cloning them. An
// error is returned if total demand exceeds capacity or a locked trial's
// allocation changed. Node IDs are non-negative, as cluster.Manager
// assigns them.
func (c *Controller) Update(allocs map[TrialID]int, nodes []*cluster.Node) (Plan, error) {
	demand := 0
	for t, g := range allocs {
		if g < 1 {
			return nil, fmt.Errorf("placement: trial %d allocated %d GPUs", t, g)
		}
		demand += g
	}
	capacity, maxID := 0, cluster.NodeID(-1)
	for _, n := range nodes {
		capacity += n.GPUs
		maxID = max(maxID, n.ID)
	}
	if demand > capacity {
		return nil, fmt.Errorf("placement: demand %d GPUs exceeds capacity %d", demand, capacity)
	}

	// free holds each node's free GPUs, indexed by NodeID; -1 marks IDs
	// that are not live nodes. Until the preserved gangs are charged
	// below, it holds full capacities.
	free := make([]int, maxID+1)
	for i := range free {
		free[i] = -1
	}
	for _, n := range nodes {
		free[n.ID] = n.GPUs
	}

	// Start from assignments that can be preserved: trials present in the
	// current plan with an unchanged allocation and whose nodes all still
	// exist (remove_discrepancies).
	plan := make(Plan, len(allocs))
	for t, a := range c.current {
		want, live := allocs[t]
		if !live {
			if c.locked[t] {
				return nil, fmt.Errorf("placement: locked trial %d removed from allocation", t)
			}
			continue
		}
		held, onLive := 0, true
		for nid, g := range a {
			held += g
			onLive = onLive && int(nid) < len(free) && free[nid] >= 0
		}
		if held == want && onLive {
			plan[t] = a
		} else if c.locked[t] {
			return nil, fmt.Errorf("placement: locked trial %d needs reallocation", t)
		}
	}

	// Fast path: everything preserved.
	if len(plan) == len(allocs) {
		c.current, c.shared = plan, true
		return plan, nil
	}

	// Charge the preserved assignments against free capacity.
	for _, a := range plan {
		for nid, g := range a {
			free[nid] -= g
			if free[nid] < 0 {
				return nil, fmt.Errorf("placement: preserved plan oversubscribes node %d", nid)
			}
		}
	}

	// Queue of trials to place, largest first (Algorithm 3's
	// sort_by_alloc descending). Trials placed during this epoch cannot
	// themselves be displaced — each queued trial gets exactly one
	// placement opportunity, which guarantees termination.
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
		want := allocs[t]
		asg, displaced, err := c.place(t, want, plan, free, placedNow)
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
	c.current, c.shared = plan, true
	return plan, nil
}

// place assigns want GPUs to trial t, mutating plan and free. It may
// displace smaller trials — excluding locked trials and trials already
// placed this epoch — which are removed from plan (their capacity returned
// to free) and returned for re-queueing.
func (c *Controller) place(t TrialID, want int, plan Plan, free []int, placedNow map[TrialID]bool) (Assignment, []TrialID, error) {
	asg := make(Assignment)
	remaining := want
	var displaced []TrialID

	for remaining > 0 {
		// The unit is a full node for whole-node chunks, or the entire
		// remainder (which must then be co-located on a single node).
		unit := remaining
		if unit > c.nodeGPUs {
			unit = c.nodeGPUs
		}
		nid, ok := bestFit(free, unit)
		if !ok {
			// Displace: free the smallest displaceable trial whose
			// removal opens a node with enough room.
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

// bestFit returns the node with the least free capacity that still fits
// unit GPUs, the smallest NodeID among equals. Absent nodes (free -1)
// never fit.
func bestFit(free []int, unit int) (cluster.NodeID, bool) {
	best := cluster.NodeID(-1)
	bestFree := int(^uint(0) >> 1)
	for nid, f := range free {
		if f >= unit && f < bestFree {
			best, bestFree = cluster.NodeID(nid), f
		}
	}
	return best, best >= 0
}

// pickVictim chooses the smallest displaceable trial (other than t) whose
// removal would let some node fit unit GPUs, breaking equal-GPU ties by
// the smallest TrialID (mirroring bestFit and sortTrials) so the victim
// is independent of map iteration order. Locked trials and trials placed
// this epoch are not displaceable.
func (c *Controller) pickVictim(plan Plan, free []int, unit int, t TrialID, placedNow map[TrialID]bool) (TrialID, bool) {
	victim := TrialID(-1)
	victimGPUs := int(^uint(0) >> 1)
	for cand, asg := range plan {
		if cand == t || c.locked[cand] || placedNow[cand] {
			continue
		}
		g := asg.GPUs()
		// Keep the minimum under the (GPUs, TrialID) total order; a
		// strict order admits exactly one minimum, so any iteration
		// order converges on the same victim.
		if g > victimGPUs || (g == victimGPUs && cand > victim) {
			continue
		}
		// Would removing cand open enough room somewhere?
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

// sortTrials orders trials by allocation descending, breaking ties by ID
// for determinism.
func sortTrials(ts []TrialID, allocs map[TrialID]int) {
	slices.SortFunc(ts, func(a, b TrialID) int {
		if allocs[a] != allocs[b] {
			return cmp.Compare(allocs[b], allocs[a])
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

// DrainOrder returns the ready nodes ordered so that draining them in
// sequence frees whole machines fastest: emptiest first. Used before
// cluster scale-down to bin-pack trials away from the nodes about to be
// released.
func (c *Controller) DrainOrder(nodes []*cluster.Node) []cluster.NodeID {
	used := make(map[cluster.NodeID]int)
	for _, a := range c.current {
		for nid, g := range a {
			used[nid] += g
		}
	}
	ids := make([]cluster.NodeID, len(nodes))
	for i, n := range nodes {
		ids[i] = n.ID
	}
	sort.Slice(ids, func(i, j int) bool {
		if used[ids[i]] != used[ids[j]] {
			return used[ids[i]] < used[ids[j]]
		}
		return ids[i] > ids[j] // prefer releasing newest nodes on ties
	})
	return ids
}
