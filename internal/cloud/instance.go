// Package cloud models the cloud provider that RubberBand provisions
// compute from: an instance-type catalog with prices, billing models
// (per-instance with a minimum charge, and per-function), data-ingress
// pricing, and stochastic provisioning behaviour (queue delay and instance
// initialization latency).
//
// The paper treats all of these as parameters of the execution model
// (§4.1); this package reproduces the published constants for the AWS EC2
// instance types used in the evaluation and exposes everything needed by
// the simulator, planner and executor.
package cloud

import (
	"fmt"
	"sort"
	"sync"
)

// InstanceType describes one compute offering from the provider's catalog.
type InstanceType struct {
	// Name is the provider's identifier, e.g. "p3.8xlarge".
	Name string
	// GPUs is the number of accelerators on one instance.
	GPUs int
	// VCPUs is the number of virtual CPUs (informational).
	VCPUs int
	// MemoryGB is the instance memory in gigabytes (informational).
	MemoryGB float64
	// OnDemandPerHour is the uninterruptible hourly price in dollars.
	OnDemandPerHour float64
	// SpotPerHour is the preemptible hourly price in dollars. Zero means
	// the type has no spot market in this catalog.
	SpotPerHour float64
	// NetworkGbps is the instance network bandwidth (informational; the
	// scaling profiles already fold communication cost in).
	NetworkGbps float64
}

// PricePerHour returns the hourly price under the given market.
func (it InstanceType) PricePerHour(m Market) float64 {
	if m == Spot && it.SpotPerHour > 0 {
		return it.SpotPerHour
	}
	return it.OnDemandPerHour
}

// PricePerGPUSecond returns the price of one GPU for one second, assuming
// the whole instance price is attributed evenly to its GPUs. This is the
// unit the per-function billing model charges in.
func (it InstanceType) PricePerGPUSecond(m Market) float64 {
	if it.GPUs == 0 {
		return 0
	}
	return it.PricePerHour(m) / float64(it.GPUs) / 3600
}

// Market selects between on-demand and spot pricing.
type Market int

const (
	// OnDemand is uninterruptible, full-price capacity.
	OnDemand Market = iota
	// Spot is preemptible discounted capacity.
	Spot
)

// String returns the market name.
func (m Market) String() string {
	switch m {
	case OnDemand:
		return "on-demand"
	case Spot:
		return "spot"
	default:
		return fmt.Sprintf("Market(%d)", int(m))
	}
}

// Catalog is a set of instance types indexed by name.
type Catalog struct {
	types map[string]InstanceType
}

// NewCatalog builds a catalog from the given types. Duplicate names return
// an error.
func NewCatalog(types ...InstanceType) (*Catalog, error) {
	c := &Catalog{types: make(map[string]InstanceType, len(types))}
	for _, it := range types {
		if it.Name == "" {
			return nil, fmt.Errorf("cloud: instance type with empty name")
		}
		if it.GPUs < 0 || it.OnDemandPerHour < 0 || it.SpotPerHour < 0 {
			return nil, fmt.Errorf("cloud: instance type %q has negative fields", it.Name)
		}
		if _, dup := c.types[it.Name]; dup {
			return nil, fmt.Errorf("cloud: duplicate instance type %q", it.Name)
		}
		c.types[it.Name] = it
	}
	return c, nil
}

// Lookup returns the instance type with the given name.
func (c *Catalog) Lookup(name string) (InstanceType, error) {
	it, ok := c.types[name]
	if !ok {
		return InstanceType{}, fmt.Errorf("cloud: unknown instance type %q", name)
	}
	return it, nil
}

// Names returns all type names in sorted order.
func (c *Catalog) Names() []string {
	names := make([]string, 0, len(c.types))
	for n := range c.types {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DefaultCatalog returns the EC2 GPU instance types used in the paper's
// evaluation, at the prices it reports (p3.2xlarge ~$3/hr with 1 V100,
// p3.16xlarge ~$24/hr with 8 V100s; the ablation in §6.2 quotes $7.50/hr
// spot-like pricing for p3.16xlarge which we expose as the spot tier).
// A Catalog has no mutators, so every call returns one shared instance,
// built on first use.
func DefaultCatalog() *Catalog { return defaultCatalog() }

var defaultCatalog = sync.OnceValue(func() *Catalog {
	c, err := NewCatalog(
		InstanceType{
			Name: "p3.2xlarge", GPUs: 1, VCPUs: 8, MemoryGB: 61,
			OnDemandPerHour: 3.06, SpotPerHour: 0.94, NetworkGbps: 10,
		},
		InstanceType{
			Name: "p3.8xlarge", GPUs: 4, VCPUs: 32, MemoryGB: 244,
			OnDemandPerHour: 12.24, SpotPerHour: 3.75, NetworkGbps: 10,
		},
		InstanceType{
			Name: "p3.16xlarge", GPUs: 8, VCPUs: 64, MemoryGB: 488,
			OnDemandPerHour: 24.48, SpotPerHour: 7.50, NetworkGbps: 25,
		},
		InstanceType{
			Name: "r5.4xlarge", GPUs: 0, VCPUs: 16, MemoryGB: 128,
			OnDemandPerHour: 1.008, SpotPerHour: 0.35, NetworkGbps: 10,
		},
	)
	if err != nil {
		panic(err) // static data; unreachable
	}
	return c
})
