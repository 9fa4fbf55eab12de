package cloud

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/vclock"
)

func TestFaultModelValidate(t *testing.T) {
	good := []FaultModel{
		{},
		{ProvisionFailureProb: 0.5},
		{PreemptionMeanSeconds: 100},
	}
	for _, f := range good {
		if err := f.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", f, err)
		}
	}
	bad := []FaultModel{
		{ProvisionFailureProb: -0.1},
		{ProvisionFailureProb: 1},
		{PreemptionMeanSeconds: -1},
	}
	for _, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("%+v accepted", f)
		}
	}
}

func TestProvisionFailureCallback(t *testing.T) {
	prof := testProfile(DefaultPricing(), detOverheads(1, 0), 0)
	prof.Faults.ProvisionFailureProb = 0.999999
	p, clock := testProviderOn(t, prof)
	it, _ := DefaultCatalog().Lookup("p3.2xlarge")
	var failed *Instance
	p.OnProvisionFailure(func(in *Instance) { failed = in })
	readied := false
	p.Request(it, func(*Instance) { readied = true })
	clock.Run(0)
	if readied {
		t.Fatal("request succeeded despite ~certain failure")
	}
	if failed == nil || failed.State != Failed {
		t.Fatalf("failure callback: %+v", failed)
	}
	if p.ProvisionFailures() != 1 {
		t.Fatalf("failures = %d", p.ProvisionFailures())
	}
	// Failed instances never bill.
	if c := p.ComputeCost(clock.Now()); c != 0 {
		t.Fatalf("failed instance billed %v", c)
	}
}

func TestPreemptionStopsBilling(t *testing.T) {
	pricing := Pricing{Billing: PerInstance, MinChargeSeconds: 0}
	prof := testProfile(pricing, detOverheads(0, 0), 0)
	prof.Faults.PreemptionMeanSeconds = 100
	p, clock := testProviderOn(t, prof)
	it, _ := DefaultCatalog().Lookup("p3.2xlarge")
	var preempted *Instance
	p.OnPreemption(func(in *Instance) { preempted = in })
	in := p.Request(it, nil)
	clock.Run(0) // drains ready + the scheduled preemption
	if preempted != in || in.State != Preempted {
		t.Fatalf("preemption not delivered: state=%v", in.State)
	}
	if p.Preemptions() != 1 {
		t.Fatalf("preemptions = %d", p.Preemptions())
	}
	// Billing stopped at the preemption time; later reads don't grow.
	at := float64(in.TerminatedAt)
	cost := p.ComputeCost(vclock.Time(at + 10000))
	want := at / 3600 * it.OnDemandPerHour
	if diff := cost - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("cost %v, want %v", cost, want)
	}
	// Terminating a preempted instance is a no-op.
	p.Terminate(in)
	if in.State != Preempted {
		t.Fatal("Terminate changed a preempted instance's state")
	}
}

func TestPreemptionSkipsReleasedInstances(t *testing.T) {
	prof := testProfile(DefaultPricing(), detOverheads(0, 0), 0)
	prof.Faults.PreemptionMeanSeconds = 1000
	p, clock := testProviderOn(t, prof)
	it, _ := DefaultCatalog().Lookup("p3.2xlarge")
	fired := false
	p.OnPreemption(func(*Instance) { fired = true })
	in := p.Request(it, nil)
	clock.At(1, func() { p.Terminate(in) })
	clock.Run(0)
	if fired {
		t.Fatal("preemption fired for a released instance")
	}
	if in.State != Terminated {
		t.Fatalf("state = %v", in.State)
	}
}

func TestNewStatesString(t *testing.T) {
	if Failed.String() != "failed" || Preempted.String() != "preempted" {
		t.Error("new state names wrong")
	}
	if InstanceState(99).String() == "" {
		t.Error("unknown state empty")
	}
}

// TestInitRejectsInvalidFaults: a provider refuses a profile whose fault
// model is out of range, at Init, before any request.
func TestInitRejectsInvalidFaults(t *testing.T) {
	for _, f := range []FaultModel{
		{ProvisionFailureProb: 2},
		{PreemptionMeanSeconds: 1e308},
	} {
		prof := testProfile(DefaultPricing(), detOverheads(0, 0), 0)
		prof.Faults = f
		if err := new(Provider).Init(vclock.New(), stats.NewRNG(1), prof); err == nil {
			t.Errorf("fault model %+v accepted", f)
		}
	}
}

func TestDefaultOverheads(t *testing.T) {
	ov := DefaultOverheads()
	if ov.QueueDelay == nil || ov.InitLatency == nil {
		t.Fatal("nil default overheads")
	}
	r := stats.NewRNG(1)
	if ov.QueueDelay.Sample(r) < 0 || ov.InitLatency.Sample(r) < 0 {
		t.Fatal("negative overhead sample")
	}
}
