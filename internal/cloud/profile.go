package cloud

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// MaxSeconds bounds every duration a Profile holds: the restore latency,
// the minimum charge, the preemption mean and the mean and standard
// deviation of each provisioning latency. It is far above any cloud the
// experiments model (the largest, a 5,000 s preemption mean), and low
// enough that no sum of a run's draws overflows the virtual clock.
const MaxSeconds = 1e6

// Profile is the cloud a job runs on, as every consumer reads it: the
// provider provisions, bills and injects faults from it, the executor
// restores checkpoints with its restore latency, and the Simulator
// prices plans against it (§4.1). One value flows from the submission to
// all three.
type Profile struct {
	// Instance is the homogeneous worker instance type.
	Instance InstanceType
	// Pricing selects billing model, market, minimum charge and data
	// price.
	Pricing Pricing
	// Overheads are the provisioning latency distributions. The provider
	// reads a nil one as zero; the Simulator refuses it.
	Overheads Overheads
	// DatasetGB is the dataset each instance ingresses once.
	DatasetGB float64
	// Faults is the injected provider fault model.
	Faults FaultModel
	// RestoreSeconds is the latency of restoring a checkpoint into a
	// freshly placed worker gang: at every stage after the first and at
	// every preemption recovery.
	RestoreSeconds float64
}

// PaperProfile returns the paper's cloud (§6.3): p3.8xlarge workers,
// DefaultPricing, DefaultOverheads, a 2 s checkpoint restore and no
// faults, with a dataset of datasetGB per instance.
func PaperProfile(datasetGB float64) Profile {
	it, err := DefaultCatalog().Lookup("p3.8xlarge")
	if err != nil {
		panic(err) // static data; unreachable
	}
	return Profile{
		Instance:       it,
		Pricing:        DefaultPricing(),
		Overheads:      DefaultOverheads(),
		DatasetGB:      datasetGB,
		RestoreSeconds: 2,
	}
}

// Validate checks the whole profile: a worker type with GPUs, a
// non-negative dataset, the pricing, the fault model, and every duration
// finite, non-negative and at most MaxSeconds. An error names the
// offending field as the experiment schema spells it.
func (p Profile) Validate() error {
	if p.Instance.GPUs < 1 {
		return fmt.Errorf("cloud: worker instance %q has %d GPUs", p.Instance.Name, p.Instance.GPUs)
	}
	if !(p.DatasetGB >= 0) || math.IsInf(p.DatasetGB, 0) {
		return fmt.Errorf("cloud: dataset_gb %v, want a finite size of 0 or more", p.DatasetGB)
	}
	if err := p.Pricing.Validate(); err != nil {
		return err
	}
	if err := p.Faults.Validate(); err != nil {
		return err
	}
	if err := checkLatency("queue_delay", p.Overheads.QueueDelay); err != nil {
		return err
	}
	if err := checkLatency("init_latency", p.Overheads.InitLatency); err != nil {
		return err
	}
	return checkSeconds("restore_seconds", p.RestoreSeconds)
}

// checkSeconds returns an error naming the duration field name unless v
// lies in [0, MaxSeconds]; NaN fails.
func checkSeconds(name string, v float64) error {
	if !(v >= 0 && v <= MaxSeconds) {
		return fmt.Errorf("cloud: %s %v outside [0, %v]", name, v, float64(MaxSeconds))
	}
	return nil
}

// checkLatency returns an error naming the latency field name unless d
// has a finite, non-negative mean of at most MaxSeconds and, if it has
// a variance, a standard deviation of at most MaxSeconds; a nil d is
// zero. A distribution without finite moments (a Pareto with alpha <= 2)
// is bounded by its mean alone: the provider draws it, and the Simulator
// refuses it.
func checkLatency(name string, d stats.Dist) error {
	m, ok := stats.DistMoment(d)
	if !ok {
		m = stats.Moment{Mean: d.Mean()}
	}
	if !(m.Mean >= 0 && m.Mean <= MaxSeconds && math.Sqrt(m.Var) <= MaxSeconds) {
		return fmt.Errorf("cloud: %s %v: want a mean and standard deviation in [0, %v] s", name, d, float64(MaxSeconds))
	}
	return nil
}
