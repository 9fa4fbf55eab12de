package cloud

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/vclock"
)

func testProvider(t *testing.T, pricing Pricing, ov Overheads, datasetGB float64) (*Provider, *vclock.Clock) {
	t.Helper()
	return testProviderOn(t, testProfile(pricing, ov, datasetGB))
}

// testProviderOn returns a new provider of prof on a new clock.
func testProviderOn(t *testing.T, prof Profile) (*Provider, *vclock.Clock) {
	t.Helper()
	clock := vclock.New()
	p, err := NewProvider(clock, stats.NewRNG(1), prof)
	if err != nil {
		t.Fatal(err)
	}
	return p, clock
}

// testProfile returns a p3.8xlarge profile with the given pricing,
// overheads and dataset, no faults and no restore.
func testProfile(pricing Pricing, ov Overheads, datasetGB float64) Profile {
	it, err := DefaultCatalog().Lookup("p3.8xlarge")
	if err != nil {
		panic(err)
	}
	return Profile{Instance: it, Pricing: pricing, Overheads: ov, DatasetGB: datasetGB}
}

func detOverheads(queue, init float64) Overheads {
	return Overheads{
		QueueDelay:  stats.Deterministic{Value: queue},
		InitLatency: stats.Deterministic{Value: init},
	}
}

func TestProviderLifecycle(t *testing.T) {
	p, clock := testProvider(t, DefaultPricing(), detOverheads(5, 10), 0)
	it, _ := DefaultCatalog().Lookup("p3.8xlarge")

	var ready *Instance
	in := p.Request(it, func(i *Instance) { ready = i })
	if in.State != Requested {
		t.Fatalf("initial state %v", in.State)
	}
	clock.Run(0)
	if ready != in {
		t.Fatal("onReady not invoked with the instance")
	}
	if in.State != Ready {
		t.Fatalf("state %v, want ready", in.State)
	}
	if got := float64(in.ReadyAt); got != 15 {
		t.Fatalf("ReadyAt %v, want 15 (5 queue + 10 init)", got)
	}
}

func TestProviderTerminateStopsBilling(t *testing.T) {
	p, clock := testProvider(t, Pricing{Billing: PerInstance, MinChargeSeconds: 0}, detOverheads(0, 0), 0)
	it, _ := DefaultCatalog().Lookup("p3.8xlarge")
	in := p.Request(it, nil)
	clock.Run(0)

	clock.At(3600, func() { p.Terminate(in) })
	clock.Run(0)
	// Billing should cover exactly one hour regardless of how far we look.
	cost := p.ComputeCost(vclock.Time(7200))
	if math.Abs(cost-it.OnDemandPerHour) > 1e-9 {
		t.Fatalf("cost %v, want %v", cost, it.OnDemandPerHour)
	}
	// Double terminate is a no-op.
	p.Terminate(in)
	if got := p.ComputeCost(vclock.Time(7200)); math.Abs(got-cost) > 1e-12 {
		t.Fatal("double terminate changed cost")
	}
}

func TestProviderCancelWhileQueued(t *testing.T) {
	p, clock := testProvider(t, DefaultPricing(), detOverheads(100, 0), 0)
	it, _ := DefaultCatalog().Lookup("p3.2xlarge")
	readied := false
	in := p.Request(it, func(*Instance) { readied = true })
	clock.At(10, func() { p.Terminate(in) })
	clock.Run(0)
	if readied {
		t.Fatal("cancelled instance became ready")
	}
	// Never left Requested before termination, so zero billing.
	if c := p.ComputeCost(clock.Now()); c != 0 {
		t.Fatalf("cancelled instance billed %v", c)
	}
}

func TestProviderMinimumCharge(t *testing.T) {
	p, clock := testProvider(t, Pricing{Billing: PerInstance, MinChargeSeconds: 60}, detOverheads(0, 0), 0)
	it, _ := DefaultCatalog().Lookup("p3.2xlarge")
	in := p.Request(it, nil)
	clock.Run(0)
	clock.At(10, func() { p.Terminate(in) })
	clock.Run(0)
	want := 60.0 / 3600 * it.OnDemandPerHour
	if c := p.ComputeCost(clock.Now()); math.Abs(c-want) > 1e-9 {
		t.Fatalf("cost %v, want minimum charge %v", c, want)
	}
}

func TestProviderPerFunctionBilling(t *testing.T) {
	p, clock := testProvider(t, Pricing{Billing: PerFunction}, detOverheads(0, 0), 0)
	it, _ := DefaultCatalog().Lookup("p3.8xlarge")
	in := p.Request(it, nil)
	clock.Run(0)
	p.RecordUsage(in, 2*3600) // 2 GPU-hours
	want := 2 * it.OnDemandPerHour / float64(it.GPUs)
	if c := p.ComputeCost(clock.Now()); math.Abs(c-want) > 1e-9 {
		t.Fatalf("per-function cost %v, want %v", c, want)
	}
}

func TestProviderDataIngress(t *testing.T) {
	pricing := DefaultPricing()
	pricing.DataPricePerGB = 0.01
	p, clock := testProvider(t, pricing, detOverheads(0, 0), 150)
	it, _ := DefaultCatalog().Lookup("p3.8xlarge")
	for i := 0; i < 3; i++ {
		p.Request(it, nil)
	}
	clock.Run(0)
	if c := p.DataCost(); math.Abs(c-3*1.5) > 1e-9 {
		t.Fatalf("data cost %v, want 4.50 (3 instances x $1.50)", c)
	}
	total := p.TotalCost(clock.Now())
	if total < p.DataCost() {
		t.Fatalf("total %v < data cost", total)
	}
}

func TestProviderInstancesOrdered(t *testing.T) {
	p, clock := testProvider(t, DefaultPricing(), detOverheads(0, 0), 0)
	it, _ := DefaultCatalog().Lookup("p3.2xlarge")
	for i := 0; i < 5; i++ {
		p.Request(it, nil)
	}
	clock.Run(0)
	ins := p.Instances()
	if len(ins) != 5 {
		t.Fatalf("len = %d", len(ins))
	}
	for i, in := range ins {
		if in.ID != i {
			t.Fatalf("instances out of order: %v", ins)
		}
	}
}

// TestProviderInstancesIsACopy: the slice Instances returns is the
// caller's own, so overwriting, truncating or appending to it leaves the
// ledger, its count and its cost unchanged.
func TestProviderInstancesIsACopy(t *testing.T) {
	p, clock := testProvider(t, DefaultPricing(), detOverheads(0, 0), 0)
	it, _ := DefaultCatalog().Lookup("p3.2xlarge")
	for i := 0; i < 4; i++ {
		p.Request(it, nil)
	}
	clock.Run(0)
	clock.Advance(3600)
	cost := p.ComputeCost(clock.Now())
	ins := p.Instances()
	ins[0], ins[3] = ins[3], nil
	ins = append(ins[:1], &Instance{ID: 99, Type: it, billing: true})
	_ = append(ins, ins...)
	got := p.Instances()
	if len(got) != 4 {
		t.Fatalf("ledger holds %d instances after the copy was edited, want 4", len(got))
	}
	for i, in := range got {
		if in == nil || in.ID != i {
			t.Fatalf("ledger entry %d is %+v after the copy was edited", i, in)
		}
	}
	if c := p.ComputeCost(clock.Now()); c != cost {
		t.Fatalf("compute cost %v after the copy was edited, want %v", c, cost)
	}
}

func TestProviderRejectsBadConfig(t *testing.T) {
	clock := vclock.New()
	if _, err := NewProvider(clock, stats.NewRNG(1), testProfile(Pricing{MinChargeSeconds: -1}, Overheads{}, 0)); err == nil {
		t.Error("invalid pricing accepted")
	}
	if _, err := NewProvider(clock, stats.NewRNG(1), testProfile(DefaultPricing(), Overheads{}, -5)); err == nil {
		t.Error("negative dataset size accepted")
	}
	if _, err := NewProvider(clock, stats.NewRNG(1), Profile{Pricing: DefaultPricing()}); err == nil {
		t.Error("a profile without a worker instance type accepted")
	}
}

func TestRecordUsagePanicsOnNegative(t *testing.T) {
	p, clock := testProvider(t, DefaultPricing(), detOverheads(0, 0), 0)
	it, _ := DefaultCatalog().Lookup("p3.2xlarge")
	in := p.Request(it, nil)
	clock.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.RecordUsage(in, -1)
}

func TestInstanceStateString(t *testing.T) {
	states := map[InstanceState]string{
		Requested: "requested", Initializing: "initializing",
		Ready: "ready", Terminated: "terminated",
	}
	for s, want := range states {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}
