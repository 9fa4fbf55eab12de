package cloud

import (
	"math"
	"testing"
)

func TestDefaultCatalog(t *testing.T) {
	c := DefaultCatalog()
	names := c.Names()
	want := []string{"p3.16xlarge", "p3.2xlarge", "p3.8xlarge", "r5.4xlarge"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
}

// TestDefaultCatalogShared: DefaultCatalog hands out one instance, and a
// hit on it allocates nothing.
func TestDefaultCatalogShared(t *testing.T) {
	if DefaultCatalog() != DefaultCatalog() {
		t.Fatal("DefaultCatalog built a second catalog")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DefaultCatalog().Lookup("p3.8xlarge"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DefaultCatalog().Lookup allocates %v, want 0", allocs)
	}
}

func TestCatalogLookup(t *testing.T) {
	c := DefaultCatalog()
	it, err := c.Lookup("p3.8xlarge")
	if err != nil {
		t.Fatal(err)
	}
	if it.GPUs != 4 {
		t.Errorf("p3.8xlarge GPUs = %d, want 4", it.GPUs)
	}
	if _, err := c.Lookup("nope"); err == nil {
		t.Error("Lookup of unknown type succeeded")
	}
}

func TestCatalogRejectsDuplicates(t *testing.T) {
	_, err := NewCatalog(
		InstanceType{Name: "a", OnDemandPerHour: 1},
		InstanceType{Name: "a", OnDemandPerHour: 2},
	)
	if err == nil {
		t.Fatal("duplicate names accepted")
	}
}

func TestCatalogRejectsInvalid(t *testing.T) {
	if _, err := NewCatalog(InstanceType{Name: ""}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewCatalog(InstanceType{Name: "x", OnDemandPerHour: -1}); err == nil {
		t.Error("negative price accepted")
	}
}

func TestPricePerHourMarkets(t *testing.T) {
	it := InstanceType{Name: "x", GPUs: 8, OnDemandPerHour: 24, SpotPerHour: 7.5}
	if p := it.PricePerHour(OnDemand); p != 24 {
		t.Errorf("on-demand price %v", p)
	}
	if p := it.PricePerHour(Spot); p != 7.5 {
		t.Errorf("spot price %v", p)
	}
	// Missing spot market falls back to on-demand.
	it.SpotPerHour = 0
	if p := it.PricePerHour(Spot); p != 24 {
		t.Errorf("spot fallback price %v", p)
	}
}

func TestPricePerGPUSecond(t *testing.T) {
	it := InstanceType{Name: "x", GPUs: 4, OnDemandPerHour: 14.4}
	want := 14.4 / 4 / 3600
	if p := it.PricePerGPUSecond(OnDemand); math.Abs(p-want) > 1e-12 {
		t.Errorf("per-GPU-second %v, want %v", p, want)
	}
	cpu := InstanceType{Name: "c", GPUs: 0, OnDemandPerHour: 1}
	if p := cpu.PricePerGPUSecond(OnDemand); p != 0 {
		t.Errorf("0-GPU instance per-GPU price %v, want 0", p)
	}
}

func TestMarketString(t *testing.T) {
	if OnDemand.String() != "on-demand" || Spot.String() != "spot" {
		t.Error("market names wrong")
	}
}
