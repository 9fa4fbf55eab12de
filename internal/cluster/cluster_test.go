package cluster

import (
	"slices"
	"testing"

	"repro/internal/cloud"
	"repro/internal/stats"
	"repro/internal/vclock"
)

func testManager(t *testing.T, queue, initLat float64) (*Manager, *vclock.Clock, *cloud.Provider) {
	t.Helper()
	return testManagerFaults(t, queue, initLat, cloud.FaultModel{})
}

// testManagerFaults is testManager on a provider that injects faults.
func testManagerFaults(t *testing.T, queue, initLat float64, faults cloud.FaultModel) (*Manager, *vclock.Clock, *cloud.Provider) {
	t.Helper()
	clock := vclock.New()
	it, err := cloud.DefaultCatalog().Lookup("p3.8xlarge")
	if err != nil {
		t.Fatal(err)
	}
	prof := cloud.Profile{
		Instance: it,
		Pricing:  cloud.DefaultPricing(),
		Overheads: cloud.Overheads{
			QueueDelay:  stats.Deterministic{Value: queue},
			InitLatency: stats.Deterministic{Value: initLat},
		},
		Faults: faults,
	}
	prof.Pricing.MinChargeSeconds = 0
	provider, err := cloud.NewProvider(clock, stats.NewRNG(1), prof)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(provider, it, clock)
	if err != nil {
		t.Fatal(err)
	}
	return m, clock, provider
}

func TestNewManagerValidation(t *testing.T) {
	clock := vclock.New()
	provider, _ := cloud.NewProvider(clock, stats.NewRNG(1), cloud.PaperProfile(0))
	if _, err := NewManager(nil, cloud.InstanceType{GPUs: 4}, clock); err == nil {
		t.Error("nil provider accepted")
	}
	if _, err := NewManager(provider, cloud.InstanceType{Name: "cpu", GPUs: 0}, clock); err == nil {
		t.Error("GPU-less worker type accepted")
	}
}

func TestScaleUpTo(t *testing.T) {
	m, clock, _ := testManager(t, 5, 10)
	if n := m.ScaleUpTo(3); n != 3 {
		t.Fatalf("requested %d, want 3", n)
	}
	if m.pending != 3 || m.Size() != 0 {
		t.Fatalf("pending=%d size=%d", m.pending, m.Size())
	}
	// Re-requesting the same target adds nothing.
	if n := m.ScaleUpTo(3); n != 0 {
		t.Fatalf("duplicate request added %d", n)
	}
	clock.Run(0)
	if m.Size() != 3 || m.pending != 0 {
		t.Fatalf("after provisioning: size=%d pending=%d", m.Size(), m.pending)
	}
	if clock.Now() != 15 {
		t.Fatalf("provisioning completed at %v, want 15", clock.Now())
	}
}

func TestNodesSortedAndCapable(t *testing.T) {
	m, clock, _ := testManager(t, 0, 0)
	m.ScaleUpTo(4)
	clock.Run(0)
	nodes := m.Ready()
	if len(nodes) != 4 {
		t.Fatalf("nodes = %d", len(nodes))
	}
	for i, n := range nodes {
		if int(n.ID) != i {
			t.Fatalf("nodes out of order: %v", nodes)
		}
		if n.GPUs != 4 {
			t.Fatalf("node %d GPUs = %d, want 4", n.ID, n.GPUs)
		}
	}
	if m.GPUsPerNode() != 4 {
		t.Fatalf("GPUsPerNode = %d", m.GPUsPerNode())
	}
}

func TestRelease(t *testing.T) {
	m, clock, provider := testManager(t, 0, 0)
	m.ScaleUpTo(2)
	clock.Run(0)
	nodes := slices.Clone(m.Ready())
	if err := m.Release(nodes[0].ID); err != nil {
		t.Fatal(err)
	}
	if m.Size() != 1 {
		t.Fatalf("size = %d after release", m.Size())
	}
	if nodes[0].Instance.State != cloud.Terminated {
		t.Fatal("released node's instance not terminated")
	}
	if err := m.Release(nodes[0].ID); err == nil {
		t.Fatal("double release succeeded")
	}
	// The surviving node keeps billing.
	alive := 0
	for _, in := range provider.Instances() {
		if in.State == cloud.Ready {
			alive++
		}
	}
	if alive != 1 {
		t.Fatalf("alive instances = %d, want 1", alive)
	}
}

func TestReleaseAll(t *testing.T) {
	m, clock, provider := testManager(t, 0, 0)
	m.ScaleUpTo(3)
	clock.Run(0)
	m.ReleaseAll()
	if m.Size() != 0 {
		t.Fatalf("size = %d after ReleaseAll", m.Size())
	}
	for _, in := range provider.Instances() {
		if in.State != cloud.Terminated {
			t.Fatalf("instance %d still %v", in.ID, in.State)
		}
	}
}

func TestWhenSizeFiresOnThreshold(t *testing.T) {
	m, clock, _ := testManager(t, 1, 1)
	fired := -1.0
	m.WhenSize(2, func() { fired = float64(clock.Now()) })
	m.ScaleUpTo(2)
	clock.Run(0)
	if fired != 2 {
		t.Fatalf("waiter fired at %v, want 2 (1s queue + 1s init)", fired)
	}
}

func TestWhenSizeImmediate(t *testing.T) {
	m, clock, _ := testManager(t, 0, 0)
	m.ScaleUpTo(1)
	clock.Run(0)
	fired := false
	m.WhenSize(1, func() { fired = true })
	if fired {
		t.Fatal("waiter fired synchronously")
	}
	clock.Run(0)
	if !fired {
		t.Fatal("immediate waiter never fired")
	}
}

func TestWhenSizeMultipleWaiters(t *testing.T) {
	m, clock, _ := testManager(t, 0, 0)
	var order []int
	m.WhenSize(3, func() { order = append(order, 3) })
	m.WhenSize(1, func() { order = append(order, 1) })
	m.WhenSize(2, func() { order = append(order, 2) })
	m.ScaleUpTo(3)
	clock.Run(0)
	if len(order) != 3 {
		t.Fatalf("fired %v", order)
	}
	// Waiters with lower thresholds fire no later than higher ones.
	seen := map[int]bool{}
	for _, v := range order {
		seen[v] = true
	}
	if !seen[1] || !seen[2] || !seen[3] {
		t.Fatalf("missing waiters: %v", order)
	}
}

func TestScaleUpWhileScaling(t *testing.T) {
	m, clock, _ := testManager(t, 10, 0)
	m.ScaleUpTo(2)
	clock.Advance(5)
	// Mid-provisioning, raise the target: only the difference is added.
	if n := m.ScaleUpTo(5); n != 3 {
		t.Fatalf("incremental request = %d, want 3", n)
	}
	clock.Run(0)
	if m.Size() != 5 {
		t.Fatalf("size = %d, want 5", m.Size())
	}
}

func TestPreemptionAutoReplaced(t *testing.T) {
	m, clock, _ := testManagerFaults(t, 0, 0, cloud.FaultModel{PreemptionMeanSeconds: 50})
	var preempted []*Node
	m.SetPreemptionHandler(func(n *Node) { preempted = append(preempted, n) })
	m.ScaleUpTo(2)
	// Bounded advance only: with preemption armed, the replace/preempt
	// cycle keeps the event queue alive forever, so an unbounded Run
	// would never return.
	clock.Advance(0)
	if m.Size() != 2 {
		t.Fatalf("size = %d", m.Size())
	}
	// Run far enough that preemptions certainly fire; every loss must be
	// replaced so the pool converges back to the target. (No unbounded
	// Run here: with preemption enabled the replace/preempt cycle keeps
	// the event queue alive forever.)
	clock.Advance(500)
	if len(preempted) == 0 {
		t.Fatal("no preemption observed")
	}
	if m.Size()+m.pending < 2 {
		t.Fatalf("pool not healed: size=%d pending=%d", m.Size(), m.pending)
	}
	// Preempted nodes are no longer in the pool.
	for _, n := range preempted {
		for _, cur := range m.Ready() {
			if cur.ID == n.ID {
				t.Fatalf("preempted node %d still in pool", n.ID)
			}
		}
	}
}

func TestProvisionFailureRetried(t *testing.T) {
	m, clock, provider := testManagerFaults(t, 1, 0, cloud.FaultModel{ProvisionFailureProb: 0.5})
	m.ScaleUpTo(4)
	clock.Run(0)
	if m.Size() != 4 {
		t.Fatalf("size = %d after retries", m.Size())
	}
	if m.Retries() == 0 {
		t.Fatal("no retries recorded despite 50% failure rate")
	}
	if m.Retries() != provider.ProvisionFailures() {
		t.Fatalf("retries %d != failures %d", m.Retries(), provider.ProvisionFailures())
	}
}

// TestNodesCacheFollowsMembership: Ready returns the same view between
// membership changes, and every change — a node becoming ready, a
// release, a preemption — shows in the next view while a snapshot cloned
// earlier stays what it was.
func TestNodesCacheFollowsMembership(t *testing.T) {
	m, clock, provider := testManager(t, 0, 0)
	m.ScaleUpTo(3)
	clock.Run(0)
	view := m.Ready()
	first := slices.Clone(view)
	if again := m.Ready(); len(again) != 3 || &again[0] != &view[0] {
		t.Fatalf("unchanged membership rebuilt the view: %v vs %v", again, view)
	}
	if err := m.Release(first[1].ID); err != nil {
		t.Fatal(err)
	}
	if got := m.Ready(); len(got) != 2 || got[0].ID != 0 || got[1].ID != 2 {
		t.Fatalf("after release: %v", got)
	}
	if len(first) != 3 || first[1].ID != 1 {
		t.Fatalf("release edited a cloned snapshot: %v", first)
	}
	if !provider.Preempt(first[0].Instance) {
		t.Fatal("node 0 not preemptible")
	}
	if got := m.Ready(); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("after preemption: %v", got)
	}
	clock.Run(0) // the replacement becomes ready
	if got := m.Ready(); len(got) != 2 || got[0].ID != 2 || got[1].ID != 3 {
		t.Fatalf("after replacement: %v", got)
	}
}
