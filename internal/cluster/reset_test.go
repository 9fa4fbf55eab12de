package cluster

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// TestManagerResetMatchesNew: a manager reset after a run with failed
// provisioning, preemptions and waiters, and initialized again on a
// reset provider and clock, runs a scaling script exactly as a new one.
func TestManagerResetMatchesNew(t *testing.T) {
	it, err := cloud.DefaultCatalog().Lookup("p3.8xlarge")
	if err != nil {
		t.Fatal(err)
	}
	script := func(m *Manager, p *cloud.Provider, clock *vclock.Clock, seed uint64, sizes []int) string {
		ov := cloud.Overheads{QueueDelay: stats.Exponential{MeanValue: 10}, InitLatency: stats.Deterministic{Value: 15}}
		prof := cloud.Profile{Instance: it, Pricing: cloud.DefaultPricing(), Overheads: ov,
			Faults: cloud.FaultModel{ProvisionFailureProb: 0.3, PreemptionMeanSeconds: 200}}
		if err := p.Init(clock, stats.NewRNG(seed), prof); err != nil {
			t.Fatal(err)
		}
		if err := m.Init(p, it, clock); err != nil {
			t.Fatal(err)
		}
		var log []string
		m.SetPreemptionHandler(func(n *Node) { log = append(log, fmt.Sprint("preempted ", n.ID)) })
		for _, n := range sizes {
			if n < m.Size() {
				if err := m.Release(m.Ready()[0].ID); err != nil {
					t.Fatal(err)
				}
			}
			m.ScaleUpTo(n)
			m.WhenSize(n, func() { log = append(log, fmt.Sprint("size ", n, " at ", clock.Now())) })
			clock.Run(clock.Now() + 120)
			for _, node := range m.Ready() {
				log = append(log, fmt.Sprint(node.ID, "/", node.Instance.ID))
			}
		}
		m.ReleaseAll()
		return fmt.Sprint(log, m.Size(), m.pending, m.Retries(), p.TotalCost(clock.Now()))
	}
	sizes := []int{3, 5, 2, 4}
	fresh := new(Manager)
	want := script(fresh, new(cloud.Provider), vclock.New(), 5, sizes)
	if !strings.Contains(want, "preempted") || fresh.Retries() == 0 {
		t.Fatalf("script saw no preemption or no retry: %s", want)
	}
	m, p, clock := new(Manager), new(cloud.Provider), vclock.New()
	script(m, p, clock, 6, []int{6, 1, 8})
	m.WhenSize(100, func() {})
	m.Reset()
	p.Reset()
	clock.Reset()
	if m.provider != nil || m.clock != nil || m.onPreempt != nil || len(m.waiters) != 0 || m.Size() != 0 || m.nextID != 0 {
		t.Fatal("a reset manager kept its provider, clock, handler, waiters or nodes")
	}
	if got := script(m, p, clock, 5, sizes); got != want {
		t.Fatalf("reset manager ran\n%s\nnew manager\n%s", got, want)
	}
}
