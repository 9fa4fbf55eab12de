package cloud

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/vclock"
)

// Overheads holds the provisioning-latency parameters of §4.1: scaling
// latency (provider queueing delay between a request and the instance being
// provisioned) and instance initialization latency (dependency install and
// cluster join after provisioning).
type Overheads struct {
	// QueueDelay is sampled once per provisioning request.
	QueueDelay stats.Dist
	// InitLatency is sampled once per instance after provisioning.
	InitLatency stats.Dist
}

// DefaultOverheads returns modest cloud overheads: an exponential queueing
// delay with a 10-second mean and a 15-second deterministic initialization,
// matching the warm-pool setup of the end-to-end experiments (§6.3).
func DefaultOverheads() Overheads {
	return Overheads{
		QueueDelay:  stats.Exponential{MeanValue: 10},
		InitLatency: stats.Deterministic{Value: 15},
	}
}

// InstanceState tracks an instance through its lifecycle.
type InstanceState int

const (
	// Requested means the provisioning request is queued at the provider.
	Requested InstanceState = iota
	// Initializing means hardware is allocated and setup scripts run.
	Initializing
	// Ready means the instance has joined the cluster and can host work.
	Ready
	// Terminated means the instance was released; billing has stopped.
	Terminated
	// Failed means the provisioning request could not be served; the
	// instance never existed and was never billed.
	Failed
	// Preempted means the provider reclaimed a running (spot) instance;
	// billing stopped at the preemption.
	Preempted
)

// String returns the state name.
func (s InstanceState) String() string {
	switch s {
	case Requested:
		return "requested"
	case Initializing:
		return "initializing"
	case Ready:
		return "ready"
	case Terminated:
		return "terminated"
	case Failed:
		return "failed"
	case Preempted:
		return "preempted"
	default:
		return fmt.Sprintf("InstanceState(%d)", int(s))
	}
}

// Instance is one provisioned machine. Fields are managed by Provider; the
// executor reads them but must mutate only through Provider methods.
type Instance struct {
	// ID is unique within one Provider, assigned in request order.
	ID int
	// Type is the instance's catalog entry.
	Type InstanceType
	// State is the current lifecycle state.
	State InstanceState
	// RequestedAt, ReadyAt, TerminatedAt are lifecycle timestamps in
	// virtual time. ReadyAt/TerminatedAt are meaningful only once the
	// corresponding state has been reached.
	RequestedAt  vclock.Time
	ReadyAt      vclock.Time
	TerminatedAt vclock.Time
	// GPUSecondsUsed accumulates task-occupied GPU time for per-function
	// billing; the executor adds to it via Provider.RecordUsage.
	GPUSecondsUsed float64

	// billStart is the moment hardware was allocated (start of billing),
	// set by Provider when the instance leaves the Requested state.
	// billing reports whether that ever happened: a request cancelled
	// while still queued incurs no charge at all.
	billStart vclock.Time
	billing   bool
}

// BilledLifetime returns the instance's billable wall-clock lifetime at
// time now. Billing starts when the machine is provisioned (hardware
// allocated, i.e. Initializing) and ends at termination.
func (in *Instance) BilledLifetime(now vclock.Time) float64 {
	if !in.billing {
		return 0
	}
	start := in.startOfBilling()
	end := now
	if in.State == Terminated || in.State == Preempted {
		end = in.TerminatedAt
	}
	if end < start {
		return 0
	}
	return float64(end - start)
}

// startOfBilling is the moment hardware was allocated and billing began.
func (in *Instance) startOfBilling() vclock.Time { return in.billStart }

// Billing reports whether the instance ever started billing (hardware was
// allocated). A request that failed or was cancelled while still queued
// never bills; cost oracles use this to reprice the ledger externally.
func (in *Instance) Billing() bool { return in.billing }

// Provider simulates the cloud control plane: it services provisioning
// requests after a sampled queueing delay, runs initialization, and meters
// cost. All methods must be called from the vclock event loop goroutine.
type Provider struct {
	clock *vclock.Clock
	rng   *stats.RNG
	// profile is the cloud the provider simulates, as Init received it;
	// its overheads' queueing delay and initialization latency are drawn
	// from rng (see stats.Draw).
	profile Profile

	// instances holds every instance ever requested, indexed by ID: IDs
	// are issued 0, 1, 2, … and an instance is never removed. onReady
	// holds each one's Request callback, by the same index.
	instances []*Instance
	onReady   []func(*Instance)
	// slab is the chunk instance records are carved from. A full chunk is
	// left to the records carved from it, and the next record moves on to
	// a fresh chunk of its own.
	slab []Instance
	// dispID is the provider's opcode dispatcher on its clock: the
	// provisioning lifecycle schedules (opcode, instance ID) events
	// rather than a closure per instance and step.
	dispID vclock.DispatchID
	// dataCost accumulates ingress charges as instances provision.
	dataCost float64

	// Fault injection (see faults.go); the model is the profile's.
	onFail      func(*Instance)
	onPreempt   func(*Instance)
	failures    int
	preemptions int
}

// NewProvider returns a provider bound to the given virtual clock that
// simulates the cloud prof: its pricing, overheads, dataset ingress and
// faults.
func NewProvider(clock *vclock.Clock, rng *stats.RNG, prof Profile) (*Provider, error) {
	p := new(Provider)
	if err := p.Init(clock, rng, prof); err != nil {
		return nil, err
	}
	return p, nil
}

// Init makes p the provider NewProvider returns for the same arguments,
// reusing p's storage: a provider recycled across runs keeps its
// instance slab, sized by its last run's ledger (see Reset). It refuses
// a profile that fails Validate; a nil queue delay or init latency is
// zero. Every request of the run, its faults included, draws from prof.
func (p *Provider) Init(clock *vclock.Clock, rng *stats.RNG, prof Profile) error {
	if err := prof.Validate(); err != nil {
		return err
	}
	p.Reset()
	p.clock, p.rng, p.profile = clock, rng, prof
	p.dispID = clock.RegisterDispatcher(p.dispatch)
	return nil
}

// Profile returns the cloud the provider simulates, as Init received it.
func (p *Provider) Profile() Profile { return p.profile }

// Reset drops the provider's run: its ledger, callbacks, profile, clock
// and counters. It keeps the ledger's storage, and a ledger that
// outgrew its slab gets one slab that holds it whole, so the next run's
// instance records come from one chunk. Records handed out before are
// reused: the caller must be done with them. After DetachInstances there
// is no slab to keep, and the next run carves each record from a chunk of
// its own, as a new provider does.
func (p *Provider) Reset() {
	used := len(p.instances)
	clear(p.instances)
	clear(p.onReady)
	clear(p.slab)
	slab := p.slab[:0]
	if slab != nil && cap(slab) < used {
		slab = make([]Instance, 0, used)
	}
	*p = Provider{instances: p.instances[:0], onReady: p.onReady[:0], slab: slab}
}

// DetachInstances gives up the instance records issued so far: they stay
// valid for whoever holds them after Reset, and later records come from
// fresh storage.
func (p *Provider) DetachInstances() { p.slab = nil }

// Opcodes of the provider's event dispatcher; the first operand is the
// instance ID.
const (
	// opQueued ends an instance's queueing delay: the request fails or
	// the instance starts initializing.
	opQueued uint8 = iota
	// opInitDone ends its initialization: the instance becomes Ready.
	opInitDone
	// opPreempt is the fault model's spot reclamation of a Ready
	// instance.
	opPreempt
)

// dispatch is the provider's opcode handler.
//
//rbvet:noalloc
func (p *Provider) dispatch(op uint8, a, _ int64) {
	in := p.instances[a]
	switch op {
	case opQueued:
		p.queued(in)
	case opInitDone:
		p.initDone(in)
	case opPreempt:
		p.Preempt(in)
	}
}

// Request asks for one instance of type it. onReady is invoked (on the
// vclock loop) when the instance reaches Ready. The returned Instance is in
// state Requested.
func (p *Provider) Request(it InstanceType, onReady func(*Instance)) *Instance {
	in := p.carve()
	*in = Instance{
		ID:          len(p.instances),
		Type:        it,
		State:       Requested,
		RequestedAt: p.clock.Now(),
	}
	p.instances = append(p.instances, in)
	p.onReady = append(p.onReady, onReady)

	p.after(stats.Draw(p.profile.Overheads.QueueDelay, p.rng), opQueued, in)
	return in
}

// carve returns a record from the slab, moving on to a fresh chunk of
// one record when the slab is full; Reset then sizes the next run's slab
// to the whole ledger.
func (p *Provider) carve() *Instance {
	if len(p.slab) == cap(p.slab) {
		p.slab = make([]Instance, 0, 1)
	}
	p.slab = p.slab[:len(p.slab)+1]
	return &p.slab[len(p.slab)-1]
}

// after schedules the provider's opcode op for instance in d seconds
// from now, exactly where clock.After(d, …) would: a negative d panics.
//
//rbvet:noalloc
func (p *Provider) after(d float64, op uint8, in *Instance) {
	if d < 0 {
		//rbvet:ignore noalloc — cold path: a negative latency sample is a distribution bug and ends the run
		panic(fmt.Sprintf("cloud: negative delay %v", d))
	}
	p.clock.AtOp(p.clock.Now()+vclock.Time(d), p.dispID, op, int64(in.ID), 0)
}

// queued ends an instance's queueing delay: unless it was cancelled
// while queued, the request fails under the fault model or the instance
// starts billing and initializing.
//
//rbvet:noalloc
func (p *Provider) queued(in *Instance) {
	if in.State == Terminated {
		return // cancelled while queued
	}
	if pf := p.profile.Faults.ProvisionFailureProb; pf > 0 && p.rng.Float64() < pf {
		in.State = Failed
		p.failures++
		if p.onFail != nil {
			p.onFail(in)
		}
		return
	}
	in.State = Initializing
	in.billStart = p.clock.Now()
	in.billing = true
	p.dataCost += p.profile.Pricing.DataIngressCost(p.profile.DatasetGB)
	p.after(stats.Draw(p.profile.Overheads.InitLatency, p.rng), opInitDone, in)
}

// initDone ends an instance's initialization: unless it was cancelled
// meanwhile, it becomes Ready, its preemption is armed and its Request
// callback runs.
//
//rbvet:noalloc
func (p *Provider) initDone(in *Instance) {
	if in.State == Terminated {
		return // cancelled during init
	}
	in.State = Ready
	in.ReadyAt = p.clock.Now()
	p.armPreemption(in)
	if fn := p.onReady[in.ID]; fn != nil {
		fn(in)
	}
}

// armPreemption schedules a spot-style reclamation for a Ready instance
// when the fault model enables it.
//
//rbvet:noalloc
func (p *Provider) armPreemption(in *Instance) {
	if p.profile.Faults.PreemptionMeanSeconds <= 0 {
		return
	}
	delay := stats.Exponential{MeanValue: p.profile.Faults.PreemptionMeanSeconds}.Sample(p.rng)
	p.after(delay, opPreempt, in)
}

// Preempt forcibly reclaims a Ready instance, as the stochastic fault
// model would: billing stops, the preemption is counted, and the
// registered preemption callback fires. It reports whether the instance
// was actually preempted (false if it had already left the Ready state).
// Besides serving the fault model's timers, it lets tests and the chaos
// harness land a preemption at an exact virtual instant.
func (p *Provider) Preempt(in *Instance) bool {
	if in.State != Ready {
		return false
	}
	in.State = Preempted
	in.TerminatedAt = p.clock.Now()
	p.preemptions++
	if p.onPreempt != nil {
		p.onPreempt(in)
	}
	return true
}

// Terminate releases the instance, stopping its billing clock. Terminating
// an already-dead instance is a no-op.
func (p *Provider) Terminate(in *Instance) {
	if in.State == Terminated || in.State == Preempted || in.State == Failed {
		return
	}
	in.State = Terminated
	in.TerminatedAt = p.clock.Now()
}

// RecordUsage adds gpuSeconds of task-occupied GPU time to the instance,
// feeding the per-function billing meter.
func (p *Provider) RecordUsage(in *Instance, gpuSeconds float64) {
	if gpuSeconds < 0 {
		panic("cloud: negative usage")
	}
	in.GPUSecondsUsed += gpuSeconds
}

// Instances returns all instances ever requested, in ID order.
// The slice is the caller's own.
func (p *Provider) Instances() []*Instance {
	return append(make([]*Instance, 0, len(p.instances)), p.instances...)
}

// NumInstances returns the number of instances ever requested.
func (p *Provider) NumInstances() int { return len(p.instances) }

// BilledGPUSeconds returns the GPU-seconds billed across all instances as
// of virtual time now: each one's billed lifetime times its GPU count,
// summed in ID order.
func (p *Provider) BilledGPUSeconds(now vclock.Time) float64 {
	total := 0.0
	for _, in := range p.instances {
		total += in.BilledLifetime(now) * float64(in.Type.GPUs)
	}
	return total
}

// ComputeCost returns the total compute charge across all instances as of
// virtual time now, under the provider's billing model.
func (p *Provider) ComputeCost(now vclock.Time) float64 {
	var total float64
	for _, in := range p.instances {
		if !in.billing {
			continue // cancelled while queued: hardware never allocated
		}
		total += p.profile.Pricing.InstanceCost(in.Type, in.BilledLifetime(now), in.GPUSecondsUsed)
	}
	return total
}

// DataCost returns the accumulated data-ingress charge.
func (p *Provider) DataCost() float64 { return p.dataCost }

// TotalCost returns compute plus data cost as of now.
func (p *Provider) TotalCost(now vclock.Time) float64 {
	return p.ComputeCost(now) + p.dataCost
}
