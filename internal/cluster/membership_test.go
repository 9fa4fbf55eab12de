package cluster

import (
	"slices"
	"testing"

	"repro/internal/cloud"
	"repro/internal/stats"
)

// TestMembershipMatchesReference drives a Manager through random
// scale-ups, releases, preemptions (some of nodes already released) and
// clock steps, and holds it to a reference read off the provider's
// ledger: the ready nodes are exactly the instances in state Ready, in
// ascending node ID, one node per instance. Every snapshot cloned from
// Ready along the way must still read as it did when it was taken —
// membership changes never rewrite a node record — and ReleaseAll must
// keep them too.
func TestMembershipMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := stats.NewRNG(uint64(seed))
		m, clock, provider := testManager(t, 1, 2)
		if seed%2 == 0 {
			if err := provider.SetFaults(cloud.FaultModel{ProvisionFailureProb: 0.3}); err != nil {
				t.Fatal(err)
			}
		}
		type snapshot struct {
			nodes []*Node
			ids   []NodeID
		}
		var snaps []snapshot
		var released []*Node
		for step := 0; step < 300; step++ {
			switch op := r.Intn(6); {
			case op == 0:
				m.ScaleUpTo(m.Size() + m.pending + 1 + r.Intn(3))
			case op == 1 && m.Size() > 0:
				n := m.Ready()[r.Intn(m.Size())]
				if err := m.Release(n.ID); err != nil {
					t.Fatal(err)
				}
				released = append(released, n)
			case op == 2 && m.Size() > 0:
				if !provider.Preempt(m.Ready()[r.Intn(m.Size())].Instance) {
					t.Fatalf("seed %d step %d: a ready node's instance was not preemptible", seed, step)
				}
			case op == 3 && len(released) > 0:
				// A preemption routed to a node the manager released must
				// be ignored: revive the instance so the provider fires.
				in := released[r.Intn(len(released))].Instance
				state := in.State
				in.State = cloud.Ready
				size, pending := m.Size(), m.pending
				provider.Preempt(in)
				in.State = state
				if m.Size() != size || m.pending != pending {
					t.Fatalf("seed %d step %d: preempting a released node changed the pool: size %d→%d, pending %d→%d", seed, step, size, m.Size(), pending, m.pending)
				}
			case op == 4:
				clock.Run(clock.Now() + 1)
			default:
				nodes := slices.Clone(m.Ready())
				ids := make([]NodeID, len(nodes))
				for i, n := range nodes {
					ids[i] = n.ID
				}
				snaps = append(snaps, snapshot{nodes, ids})
			}

			var want []int
			for _, in := range provider.Instances() {
				if in.State == cloud.Ready {
					want = append(want, in.ID)
				}
			}
			nodes := m.Ready()
			var got []int
			for i, n := range nodes {
				if i > 0 && nodes[i-1].ID >= n.ID {
					t.Fatalf("seed %d step %d: Ready not ascending: %d then %d", seed, step, nodes[i-1].ID, n.ID)
				}
				got = append(got, n.Instance.ID)
			}
			slices.Sort(got)
			if !slices.Equal(got, want) || m.Size() != len(want) {
				t.Fatalf("seed %d step %d: ready instances %v (size %d), ledger %v", seed, step, got, m.Size(), want)
			}
			for _, s := range snaps {
				for i, n := range s.nodes {
					if n.ID != s.ids[i] {
						t.Fatalf("seed %d step %d: a Ready snapshot changed: %v", seed, step, s.ids)
					}
				}
			}
		}
		m.ReleaseAll()
		if m.Size() != 0 {
			t.Fatalf("seed %d: %d nodes after ReleaseAll", seed, m.Size())
		}
		for _, s := range snaps {
			for i, n := range s.nodes {
				if n.ID != s.ids[i] {
					t.Fatalf("seed %d: ReleaseAll changed a Ready snapshot: %v", seed, s.ids)
				}
			}
		}
		for _, in := range provider.Instances() {
			if in.State == cloud.Ready {
				t.Fatalf("seed %d: instance %d still ready after ReleaseAll", seed, in.ID)
			}
		}
	}
}

// TestReadyEditsInPlace: releasing nodes read through Ready edits the
// ready slice in place instead of copying it, and ReleaseAll releases in
// ID order without copying either, leaving a cloned snapshot intact.
func TestReadyEditsInPlace(t *testing.T) {
	m, clock, _ := testManager(t, 1, 2)
	m.ScaleUpTo(6)
	clock.Run(clock.Now() + 1000)
	if m.Size() != 6 {
		t.Fatalf("size %d, want 6", m.Size())
	}
	ready := m.Ready()
	base := &ready[0]
	for _, id := range []NodeID{ready[4].ID, ready[0].ID} {
		if err := m.Release(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Ready(); &got[0] != base || len(got) != 4 {
		t.Fatalf("release after Ready copied the ready slice (%d nodes left)", len(got))
	}
	var ids []NodeID
	for _, n := range m.Ready() {
		ids = append(ids, n.ID)
	}
	snap := slices.Clone(m.Ready())
	m.ReleaseAll()
	for i, n := range snap {
		if n.ID != ids[i] {
			t.Fatalf("ReleaseAll edited a Ready snapshot: %v, was %v", snap, ids)
		}
	}
	if m.Size() != 0 {
		t.Fatalf("%d nodes after ReleaseAll", m.Size())
	}
}
