// Package cluster implements RubberBand's cluster manager (§5): it sits
// between the executor and the cloud provider, servicing ad-hoc requests to
// scale the worker pool up or down, tracking node lifecycle, and exposing
// the node inventory that the placement controller packs trials onto.
package cluster

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cloud"
	"repro/internal/vclock"
)

// NodeID identifies a worker node within one Manager.
type NodeID int

// Node is one ready worker instance in the cluster.
type Node struct {
	// ID is the manager-scoped node identifier.
	ID NodeID
	// Instance is the underlying provider instance.
	Instance *cloud.Instance
	// GPUs is the node's accelerator count.
	GPUs int
}

// Manager elastically manages a homogeneous pool of worker nodes. All
// methods must be called from the vclock event-loop goroutine.
type Manager struct {
	provider *cloud.Provider
	instType cloud.InstanceType
	clock    *vclock.Clock

	nextID NodeID
	// ready holds the ready nodes in ascending ID order: IDs are issued
	// in increasing order, so a node that becomes ready appends.
	ready   []*Node
	pending int
	target  int // desired ready-node count; reconcile provisions up to it
	// waiters are WhenSize callbacks fired as nodes become ready.
	waiters []waiter
	// byInstance holds the ready node on each provider instance, indexed
	// by instance ID (nil: none), for preemption routing.
	byInstance []*Node
	// onPreempt is the executor's preemption handler (may be nil).
	onPreempt func(*Node)
	// readyFn, failFn and preemptFn are m's provisioning callbacks, bound
	// once: readyFn is passed with every request the manager issues, the
	// others are registered with the provider.
	readyFn, failFn, preemptFn func(*cloud.Instance)
	// slab is the chunk new nodes are carved from; a chunk is never moved
	// within a run, so a node's pointer stays valid until Reset.
	slab []Node
	// retries counts provisioning requests reissued after failures.
	retries int
}

type waiter struct {
	target int
	fn     func()
}

// NewManager returns a manager provisioning workers of type it from the
// provider.
func NewManager(provider *cloud.Provider, it cloud.InstanceType, clock *vclock.Clock) (*Manager, error) {
	m := new(Manager)
	if err := m.Init(provider, it, clock); err != nil {
		return nil, err
	}
	return m, nil
}

// Init makes m the manager NewManager returns for the same arguments,
// reusing m's storage: a manager recycled across runs keeps its node
// slab and its ready, index and waiter buffers.
func (m *Manager) Init(provider *cloud.Provider, it cloud.InstanceType, clock *vclock.Clock) error {
	if provider == nil || clock == nil {
		return fmt.Errorf("cluster: nil provider or clock")
	}
	if it.GPUs < 1 {
		return fmt.Errorf("cluster: worker type %q has no GPUs", it.Name)
	}
	m.Reset()
	m.provider, m.instType, m.clock = provider, it, clock
	if m.readyFn == nil {
		// Bound once per manager: the method values hold only m.
		m.readyFn, m.failFn, m.preemptFn = m.nodeReady, m.provisionFailed, m.preempted
	}
	// Heal capacity automatically: failed requests are reissued so that
	// the ready count still converges on the target, and preemptions are
	// both replaced and surfaced to the scheduler for trial recovery.
	provider.OnProvisionFailure(m.failFn)
	provider.OnPreemption(m.preemptFn)
	return nil
}

// Reset drops the manager's run — its provider, clock, nodes, waiters
// and handler — keeping its buffers' and its node slab's capacity. Node
// records handed out before are reused, so the caller must be done with
// them.
func (m *Manager) Reset() {
	clear(m.ready)
	clear(m.waiters)
	clear(m.byInstance)
	clear(m.slab)
	*m = Manager{
		ready: m.ready[:0], waiters: m.waiters[:0], byInstance: m.byInstance[:0], slab: m.slab[:0],
		readyFn: m.readyFn, failFn: m.failFn, preemptFn: m.preemptFn,
	}
}

// provisionFailed reissues a failed provisioning request.
func (m *Manager) provisionFailed(*cloud.Instance) {
	m.pending--
	m.retries++
	m.reconcile()
}

// preempted removes the node on a preempted instance, requests its
// replacement and hands the node to the preemption handler.
func (m *Manager) preempted(in *cloud.Instance) {
	if in.ID >= len(m.byInstance) || m.byInstance[in.ID] == nil {
		return // not one of ours, or already released
	}
	node := m.byInstance[in.ID]
	m.remove(node)
	m.reconcile()
	if m.onPreempt != nil {
		m.onPreempt(node)
	}
}

// SetPreemptionHandler registers fn to be invoked when a ready node is
// preempted (after the node has been removed from the pool and a
// replacement requested).
func (m *Manager) SetPreemptionHandler(fn func(*Node)) { m.onPreempt = fn }

// Retries returns the number of provisioning requests reissued after
// failures.
func (m *Manager) Retries() int { return m.retries }

// GPUsPerNode returns the accelerator count of the worker instance type.
func (m *Manager) GPUsPerNode() int { return m.instType.GPUs }

// Size returns the number of ready nodes.
func (m *Manager) Size() int { return len(m.ready) }

// Ready returns the ready nodes sorted by ID for a caller done with the
// slice before the next membership change, which edits it in place; a
// caller that keeps a snapshot clones it. The caller must not modify
// the slice. The executor reads the nodes this way within one event.
func (m *Manager) Ready() []*Node { return m.ready[:len(m.ready):len(m.ready)] }

// find returns the position of node id in the ready slice, and whether
// it is there.
func (m *Manager) find(id NodeID) (int, bool) {
	return slices.BinarySearchFunc(m.ready, id, func(n *Node, id NodeID) int { return cmp.Compare(n.ID, id) })
}

// remove takes node out of the ready set and the instance index.
func (m *Manager) remove(node *Node) {
	i, _ := m.find(node.ID)
	m.ready = slices.Delete(m.ready, i, i+1)
	m.byInstance[node.Instance.ID] = nil
}

// ScaleUpTo raises the desired ready-node count to target (it never
// lowers it) and requests instances to cover the gap. It returns the
// number of new instances requested. Scale-down is explicit via Release
// so that the placement controller chooses which nodes to drain (§4.4).
func (m *Manager) ScaleUpTo(target int) int {
	if target > m.target {
		m.target = target
	}
	return m.reconcile()
}

// reconcile issues provisioning requests until ready+pending covers the
// target.
func (m *Manager) reconcile() int {
	gap := m.target - len(m.ready) - m.pending
	if gap <= 0 {
		return 0
	}
	m.pending += gap
	for range gap {
		m.provider.Request(m.instType, m.readyFn)
	}
	return gap
}

// nodeReady adds the node on a freshly ready instance to the pool and
// fires the waiters its arrival satisfies.
func (m *Manager) nodeReady(in *cloud.Instance) {
	m.pending--
	node := m.newNode()
	*node = Node{ID: m.nextID, Instance: in, GPUs: in.Type.GPUs}
	m.nextID++
	m.ready = append(m.ready, node)
	if in.ID >= len(m.byInstance) {
		m.byInstance = append(m.byInstance, make([]*Node, in.ID+1-len(m.byInstance))...)
	}
	m.byInstance[in.ID] = node
	m.notify()
}

// newNode carves a node record from the manager's slab. A full slab
// moves on to a fresh chunk, twice its size; nodes carved earlier keep
// the old one.
func (m *Manager) newNode() *Node {
	if len(m.slab) == cap(m.slab) {
		m.slab = make([]Node, 0, max(2*cap(m.slab), 1))
	}
	m.slab = m.slab[:len(m.slab)+1]
	return &m.slab[len(m.slab)-1]
}

// Release deprovisions a ready node, stopping its billing and lowering
// the desired capacity accordingly. Releasing an unknown node is an
// error.
func (m *Manager) Release(id NodeID) error {
	i, ok := m.find(id)
	if !ok {
		return fmt.Errorf("cluster: release of unknown node %d", id)
	}
	node := m.ready[i]
	m.remove(node)
	m.provider.Terminate(node.Instance)
	m.target = min(m.target, len(m.ready)+m.pending)
	return nil
}

// ReleaseAll deprovisions every ready node (end of experiment), in ID
// order.
func (m *Manager) ReleaseAll() {
	for len(m.ready) > 0 {
		//rbvet:ignore droppederr — the ID comes from the ready set itself, so Release cannot fail
		_ = m.Release(m.ready[0].ID)
	}
}

// WhenSize schedules fn to run as soon as the ready-node count reaches at
// least target (as a deferred event if it already has, keeping callback
// ordering uniform).
func (m *Manager) WhenSize(target int, fn func()) {
	if len(m.ready) >= target {
		m.clock.After(0, fn)
		return
	}
	m.waiters = append(m.waiters, waiter{target: target, fn: fn})
}

// notify fires waiters whose size condition is now satisfied, in
// registration order, and keeps the rest in place. A waiter registered by
// a fired callback lands after the waiters kept, as it would have landed
// after every waiter notify found.
//
//rbvet:noalloc
func (m *Manager) notify() {
	n, kept := len(m.waiters), 0
	for i := 0; i < n; i++ {
		// Index afresh: a fired callback may append to m.waiters and
		// move it.
		w := m.waiters[i]
		if len(m.ready) >= w.target {
			w.fn()
			continue
		}
		m.waiters[kept] = w
		kept++
	}
	added := copy(m.waiters[kept:], m.waiters[n:])
	clear(m.waiters[kept+added:])
	m.waiters = m.waiters[:kept+added]
}
