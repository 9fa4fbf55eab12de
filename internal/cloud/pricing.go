package cloud

import "fmt"

// BillingModel selects how compute time is charged.
type BillingModel int

const (
	// PerInstance charges for the full wall-clock lifetime of every
	// provisioned instance, with per-second granularity above a minimum
	// charge (60 s on the major providers). Idle GPUs still cost money —
	// this is the model under which stragglers are expensive.
	PerInstance BillingModel = iota
	// PerFunction charges only for GPU-seconds actually consumed by
	// running tasks, approximating serverless/finer-grained offerings.
	PerFunction
)

// String returns the billing model name.
func (b BillingModel) String() string {
	switch b {
	case PerInstance:
		return "per-instance"
	case PerFunction:
		return "per-function"
	default:
		return fmt.Sprintf("BillingModel(%d)", int(b))
	}
}

// Pricing holds the cost-model parameters from §4.1: compute price comes
// from the instance type and market; billing granularity, minimum charge
// and data-ingress price are explicit knobs.
type Pricing struct {
	// Billing selects per-instance or per-function charging.
	Billing BillingModel
	// Market selects on-demand or spot compute prices.
	Market Market
	// MinChargeSeconds is the minimum billed duration per instance under
	// PerInstance billing (60 s at major providers; 0 disables).
	MinChargeSeconds float64
	// DataPricePerGB is the ingress price in dollars per gigabyte for
	// reading the training dataset from external storage, charged once
	// per provisioned instance. Often 0 within a region.
	DataPricePerGB float64
}

// DefaultPricing matches the paper's baseline assumptions: per-instance
// on-demand billing, per-second granularity with a 60-second minimum, and
// free data movement.
func DefaultPricing() Pricing {
	return Pricing{
		Billing:          PerInstance,
		Market:           OnDemand,
		MinChargeSeconds: 60,
		DataPricePerGB:   0,
	}
}

// InstanceCost returns the charge for one instance of type it that was held
// for busySeconds of lifetime under per-instance billing, or that consumed
// gpuSecondsUsed under per-function billing.
func (p Pricing) InstanceCost(it InstanceType, lifetimeSeconds, gpuSecondsUsed float64) float64 {
	switch p.Billing {
	case PerFunction:
		return gpuSecondsUsed * it.PricePerGPUSecond(p.Market)
	default:
		billed := lifetimeSeconds
		if billed < p.MinChargeSeconds {
			billed = p.MinChargeSeconds
		}
		return billed / 3600 * it.PricePerHour(p.Market)
	}
}

// DataIngressCost returns the one-time data movement charge for one
// instance downloading a dataset of the given size.
func (p Pricing) DataIngressCost(datasetGB float64) float64 {
	return p.DataPricePerGB * datasetGB
}

// Validate checks that the pricing parameters are sane.
func (p Pricing) Validate() error {
	if err := checkSeconds("min_charge_seconds", p.MinChargeSeconds); err != nil {
		return err
	}
	if p.DataPricePerGB < 0 {
		return fmt.Errorf("cloud: negative data price %v", p.DataPricePerGB)
	}
	if p.Billing != PerInstance && p.Billing != PerFunction {
		return fmt.Errorf("cloud: unknown billing model %d", p.Billing)
	}
	if p.Market != OnDemand && p.Market != Spot {
		return fmt.Errorf("cloud: unknown market %d", p.Market)
	}
	return nil
}
