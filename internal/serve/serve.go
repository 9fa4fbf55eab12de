// Package serve is the multi-tenant tuning-as-a-service control plane:
// a long-running HTTP/JSON API (submit experiments, query live status,
// stream stage/grant events, fetch replay tuples) in front of a
// cross-experiment arbiter that admits tenants, enforces per-tenant
// quotas and bounded submission queues, and reallocates one shared
// simulated cluster across experiments at stage boundaries by marginal
// deadline slack (HyperSched-style: steal from slack-rich jobs, feed
// deadline-critical ones).
//
// The determinism boundary is explicit. The HTTP layer lives in wall
// time — request arrival order, goroutine interleaving, and therefore
// the arbiter's grant sequence are not reproducible run to run. But
// every admitted experiment runs on its own seeded virtual clock, and
// the only nondeterministic input it ever consumes is that grant
// sequence, injected at stage boundaries through the harness grant gate
// and recorded — in the experiment's journal (Grant records) and in its
// replay tuple. A completed experiment's (seed, spec, grants) tuple
// therefore replays offline to a bit-identical digest: VerifyReplay (and
// `rbfuzz -serve-replay`) re-runs the scenario with the recorded grants
// scripted and compares digests. Everything below the gate stays
// rbvet-taint-clean; the package's only wall-clock read is the annotated
// ops-surface helper in wall.go.
package serve

import (
	"fmt"
	"strconv"

	"repro/internal/cloud"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/model"
	"repro/internal/searchspace"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
)

// Submission is the JSON body of POST /v1/experiments: a complete,
// self-contained experiment description. BuildScenario maps it to a
// harness scenario as a pure function — the submission plus the recorded
// grant sequence is the experiment's full replay tuple.
type Submission struct {
	// Tenant is the submitting tenant (journal.ValidName alphabet).
	Tenant string `json:"tenant"`
	// Name optionally labels the experiment for humans.
	Name string `json:"name,omitempty"`
	// Model names a zoo workload (resnet50, vgg16, resnet101, bert, …).
	Model string `json:"model"`
	// Stages is the successive-halving structure: [trials, iters] pairs
	// with non-increasing trial counts.
	Stages [][2]int `json:"stages"`
	// Seed drives every random stream of the experiment.
	Seed uint64 `json:"seed"`
	// MaxGPUs caps the experiment's peak cluster request.
	MaxGPUs int `json:"max_gpus"`
	// DeadlineFactor scales the analytic static-cluster JCT at MaxGPUs
	// into the job deadline (values near 1 are tight).
	DeadlineFactor float64 `json:"deadline_factor"`
	// Samples is the simulator's Monte-Carlo sample count (default 4).
	Samples int `json:"samples,omitempty"`
	// Estimator selects the estimator mode: "segment" (the default when
	// empty) or "analytic".
	Estimator string `json:"estimator,omitempty"`
	// Instance names the cloud catalog worker type (default p3.2xlarge).
	Instance string `json:"instance,omitempty"`
}

// submission limits: bounds on accepted experiment shapes so one tenant
// cannot submit an experiment that monopolizes the service.
const (
	maxStages        = 8
	maxTrials        = 64
	maxIters         = 50
	maxSamples       = 64
	maxDeadlineScale = 100.0
	// maxGPUs bounds max_gpus where no tenant quota applies (replay
	// verification and recovery): plan search is linear in it.
	maxGPUs = 4096
)

// Validate checks the submission's structural limits. The tenant name
// shares the journal's directory-name alphabet so any valid submission
// can be journaled per tenant.
func (s *Submission) Validate() error {
	if !validName(s.Tenant) {
		return fmt.Errorf("invalid tenant %q: want 1-64 chars of [a-z0-9-]", s.Tenant)
	}
	if _, err := zooModel(s.Model); err != nil {
		return err
	}
	if len(s.Stages) == 0 || len(s.Stages) > maxStages {
		return fmt.Errorf("%d stages, want 1-%d", len(s.Stages), maxStages)
	}
	prev := maxTrials
	for i, st := range s.Stages {
		trials, iters := st[0], st[1]
		if trials < 1 || trials > prev {
			return fmt.Errorf("stage %d: %d trials, want 1-%d non-increasing", i, trials, prev)
		}
		if iters < 1 || iters > maxIters {
			return fmt.Errorf("stage %d: %d iters, want 1-%d", i, iters, maxIters)
		}
		prev = trials
	}
	if s.MaxGPUs < 1 || s.MaxGPUs > maxGPUs {
		return fmt.Errorf("max_gpus %d, want 1-%d", s.MaxGPUs, maxGPUs)
	}
	if !(s.DeadlineFactor > 0 && s.DeadlineFactor <= maxDeadlineScale) {
		return fmt.Errorf("deadline_factor %v, want (0, %v]", s.DeadlineFactor, maxDeadlineScale)
	}
	if s.Samples < 0 || s.Samples > maxSamples {
		return fmt.Errorf("samples %d, want 0-%d", s.Samples, maxSamples)
	}
	if _, err := s.estimator(); err != nil {
		return err
	}
	if _, err := cloud.DefaultCatalog().Lookup(instanceName(s.Instance)); err != nil {
		return fmt.Errorf("instance %q: %w", s.Instance, err)
	}
	return nil
}

// validName is the tenant/run directory alphabet, shared with the
// journal's per-tenant layout.
func validName(s string) bool { return journal.ValidName(s) }

// zooModel resolves a zoo workload by name, building only that model.
func zooModel(name string) (*model.Model, error) {
	m, err := model.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("unknown model %q", name)
	}
	return m, nil
}

// estimator parses the estimator field with sim.ParseEstimator; empty
// selects the segment estimator.
func (s *Submission) estimator() (sim.EstimatorMode, error) {
	if s.Estimator == "" {
		return sim.EstimatorSegment, nil
	}
	return sim.ParseEstimator(s.Estimator)
}

// instanceName applies the worker-type default.
func instanceName(s string) string {
	if s == "" {
		return "p3.2xlarge"
	}
	return s
}

// BuildScenario maps a validated submission to its harness scenario: a
// pure function, drawing no randomness, so the same submission always
// yields the same scenario. The cloud substrate is deterministic
// on-demand per-instance billing with zero queue delay — the service's
// nondeterminism budget is spent entirely on the arbiter's grants.
func BuildScenario(sub Submission) (harness.Scenario, error) {
	if err := sub.Validate(); err != nil {
		return harness.Scenario{}, fmt.Errorf("serve: submission: %w", err)
	}
	stages := make([]spec.Stage, len(sub.Stages))
	for i, st := range sub.Stages {
		stages[i] = spec.Stage{Trials: st[0], Iters: st[1]}
	}
	sp, err := spec.New(stages...)
	if err != nil {
		return harness.Scenario{}, fmt.Errorf("serve: spec: %w", err)
	}
	m, err := zooModel(sub.Model)
	if err != nil {
		return harness.Scenario{}, err
	}
	it, err := cloud.DefaultCatalog().Lookup(instanceName(sub.Instance))
	if err != nil {
		return harness.Scenario{}, err
	}
	est, err := sub.estimator()
	if err != nil {
		return harness.Scenario{}, err
	}
	space := searchspace.DefaultVisionSpace()
	if m.Name == "bert" {
		space = searchspace.DefaultNLPSpace()
	}
	samples := sub.Samples
	if samples == 0 {
		samples = 4
	}
	return harness.Scenario{
		BatchSeed: sub.Seed,
		Index:     0,
		Spec:      sp,
		Model:     m,
		Space:     space,
		Profile: sim.CloudProfile{
			Instance: it,
			Pricing:  cloud.Pricing{Billing: cloud.PerInstance, Market: cloud.OnDemand},
			Overheads: cloud.Overheads{
				QueueDelay:  stats.Deterministic{Value: 0},
				InitLatency: stats.Deterministic{Value: 5},
			},
		},
		RestoreSeconds: 2,
		MaxGPUs:        sub.MaxGPUs,
		Samples:        samples,
		DeadlineFactor: sub.DeadlineFactor,
		Estimator:      est,
	}, nil
}

// ReplayTuple is the server-reported (seed, spec, decisions) record of a
// completed experiment: everything needed to re-derive its digest
// offline, away from the live arbiter and the wall clock.
type ReplayTuple struct {
	ID         string                  `json:"id"`
	Submission Submission              `json:"submission"`
	Grants     []harness.GrantDecision `json:"grants"`
	Digest     string                  `json:"digest"`
	JCT        float64                 `json:"jct"`
	Cost       float64                 `json:"cost"`
}

// ScriptedGrants is a gate that re-issues a recorded grant sequence in
// order. Requests past the script's end are granted in full (a correct
// replay never reaches them: the script covers every stage).
func ScriptedGrants(grants []harness.GrantDecision) harness.GrantFn {
	i := 0
	return func(req harness.GrantRequest) int {
		if i < len(grants) {
			g := grants[i].Granted
			i++
			return g
		}
		return req.Want
	}
}

// VerifyReplay re-runs a replay tuple offline — the recorded grants
// scripted into a fresh gated run — and checks the digest matches the
// server-reported one bit for bit. It returns the recomputed digest.
func VerifyReplay(t ReplayTuple) (harness.Digest, error) {
	sc, err := BuildScenario(t.Submission)
	if err != nil {
		return 0, err
	}
	a, err := harness.Run(sc, harness.RunConfig{Gate: ScriptedGrants(t.Grants)})
	if err != nil {
		return 0, fmt.Errorf("serve: replay run: %w", err)
	}
	if got, want := len(a.Grants), len(t.Grants); got != want {
		return 0, fmt.Errorf("serve: replay consumed %d grants, tuple records %d", got, want)
	}
	d := harness.ComputeDigest(a)
	want, err := strconv.ParseUint(t.Digest, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("serve: tuple digest %q: %w", t.Digest, err)
	}
	if uint64(d) != want {
		return 0, fmt.Errorf("serve: replay digest %016x != recorded digest %s", uint64(d), t.Digest)
	}
	return d, nil
}

// DigestString renders a digest the way replay tuples store it.
func DigestString(d harness.Digest) string { return fmt.Sprintf("%016x", uint64(d)) }
