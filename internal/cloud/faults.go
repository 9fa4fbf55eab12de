package cloud

import (
	"fmt"
	"math"
)

// FaultModel injects provider-side failures, extending the paper's
// idealized assumptions (§3: "provisioning requests are always served",
// on-demand-only pricing). Spot preemption is the paper's explicitly
// deferred future work; provisioning failure exercises the cluster
// manager's retry path.
type FaultModel struct {
	// ProvisionFailureProb is the probability that a provisioning
	// request fails after its queueing delay (the instance never
	// materializes and must be re-requested).
	ProvisionFailureProb float64
	// PreemptionMeanSeconds, when positive, gives each Ready instance an
	// exponentially distributed time-to-preemption with this mean. The
	// instance stops billing at preemption and its workload must recover
	// from checkpoints.
	PreemptionMeanSeconds float64
}

// Validate checks the fault parameters. NaN values are rejected
// explicitly: every comparison against NaN is false, so without these
// checks a NaN probability or mean would slip through the range tests and
// poison the provider's arithmetic (a NaN preemption delay panics the
// virtual clock).
func (f FaultModel) Validate() error {
	if math.IsNaN(f.ProvisionFailureProb) || f.ProvisionFailureProb < 0 || f.ProvisionFailureProb >= 1 {
		return fmt.Errorf("cloud: provision failure probability %v outside [0,1)", f.ProvisionFailureProb)
	}
	if math.IsNaN(f.PreemptionMeanSeconds) || math.IsInf(f.PreemptionMeanSeconds, 0) || f.PreemptionMeanSeconds < 0 {
		return fmt.Errorf("cloud: invalid preemption mean %v", f.PreemptionMeanSeconds)
	}
	return nil
}

// SetFaults installs a fault model. It affects only instances requested
// after the call.
func (p *Provider) SetFaults(f FaultModel) error {
	if err := f.Validate(); err != nil {
		return err
	}
	p.faults = f
	return nil
}

// OnProvisionFailure registers fn to be invoked whenever a provisioning
// request fails. The instance passed is in state Failed.
func (p *Provider) OnProvisionFailure(fn func(*Instance)) { p.onFail = fn }

// OnPreemption registers fn to be invoked whenever a Ready instance is
// preempted. The instance passed is in state Preempted; billing has
// already stopped.
func (p *Provider) OnPreemption(fn func(*Instance)) { p.onPreempt = fn }

// Preemptions returns the number of instances preempted so far.
func (p *Provider) Preemptions() int { return p.preemptions } //rbvet:ignore unreached — executor and cloud tests count preemptions through it

// ProvisionFailures returns the number of failed provisioning requests so
// far.
func (p *Provider) ProvisionFailures() int { return p.failures } //rbvet:ignore unreached — executor, cluster and cloud tests count failed requests through it
