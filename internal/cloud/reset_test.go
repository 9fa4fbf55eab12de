package cloud

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/stats"
	"repro/internal/vclock"
)

// TestProviderResetMatchesNew: a provider reset after a faulty run and
// initialized again on a reset clock runs a request script exactly as a
// new provider does; the records DetachInstances gave away keep their
// state, and without it the next run's records fit in one slab.
func TestProviderResetMatchesNew(t *testing.T) {
	it, err := DefaultCatalog().Lookup("p3.8xlarge")
	if err != nil {
		t.Fatal(err)
	}
	script := func(p *Provider, clock *vclock.Clock, seed uint64, bursts []int) string {
		ov := Overheads{QueueDelay: stats.Exponential{MeanValue: 20}, InitLatency: stats.Normal{Mu: 60, Sigma: 15}}
		prof := Profile{Instance: it, Pricing: DefaultPricing(), Overheads: ov, DatasetGB: 3,
			Faults: FaultModel{ProvisionFailureProb: 0.3, PreemptionMeanSeconds: 500}}
		if err := p.Init(clock, stats.NewRNG(seed), prof); err != nil {
			t.Fatal(err)
		}
		var log []string
		p.OnProvisionFailure(func(in *Instance) { log = append(log, fmt.Sprint("fail ", in.ID)) })
		p.OnPreemption(func(in *Instance) { log = append(log, fmt.Sprint("preempt ", in.ID)) })
		onReady := func(in *Instance) { log = append(log, fmt.Sprint("ready ", in.ID, " ", clock.Now())) }
		for _, n := range bursts {
			for range n {
				p.Request(it, onReady)
			}
			clock.Run(clock.Now() + 30)
		}
		p.Request(it, onReady)
		clock.Run(clock.Now() + 2000)
		for _, in := range p.Instances() {
			log = append(log, fmt.Sprintf("%+v", *in))
		}
		return fmt.Sprint(log, p.TotalCost(clock.Now()), p.NumInstances(), p.BilledGPUSeconds(clock.Now()), p.ProvisionFailures(), p.Preemptions())
	}
	bursts := []int{1, 5, 3}
	want := script(new(Provider), vclock.New(), 7, bursts)

	p, clock := new(Provider), vclock.New()
	script(p, clock, 8, []int{6, 2})
	held := p.Instances()
	before := fmt.Sprint(instanceValues(held))
	p.DetachInstances()
	p.Reset()
	clock.Reset()
	if p.onFail != nil || p.onPreempt != nil || p.clock != nil || p.NumInstances() != 0 {
		t.Fatal("a reset provider kept its callbacks, clock or ledger")
	}
	if got := script(p, clock, 7, bursts); got != want {
		t.Fatalf("reset provider ran\n%s\nnew provider\n%s", got, want)
	}
	if after := fmt.Sprint(instanceValues(held)); after != before {
		t.Fatal("records given away by DetachInstances changed when the provider ran again")
	}
	used := p.NumInstances()
	p.Reset()
	clock.Reset()
	if cap(p.slab) < used {
		t.Fatalf("a reset provider's slab holds %d records, its last run used %d", cap(p.slab), used)
	}
	if got := script(p, clock, 7, bursts); got != want {
		t.Fatal("a provider reset without DetachInstances runs differently from a new one")
	}
}

// instanceValues copies the records ins points to.
func instanceValues(ins []*Instance) []Instance {
	out := make([]Instance, len(ins))
	for i, in := range ins {
		out[i] = *in
	}
	return slices.Clip(out)
}
