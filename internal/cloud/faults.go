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

// Validate checks the fault parameters: a failure probability in [0, 1)
// and a preemption mean in [0, MaxSeconds]. NaN fails both: a NaN or
// unbounded preemption mean would overflow or poison the provider's
// delays, and a NaN or infinite delay panics the virtual clock.
func (f FaultModel) Validate() error {
	if math.IsNaN(f.ProvisionFailureProb) || f.ProvisionFailureProb < 0 || f.ProvisionFailureProb >= 1 {
		return fmt.Errorf("cloud: provision_failure_prob %v outside [0, 1)", f.ProvisionFailureProb)
	}
	return checkSeconds("preemption_mean_seconds", f.PreemptionMeanSeconds)
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
