// Package asha implements Asynchronous Successive Halving (ASHA, Li et
// al. 2018) — the prior-work baseline the paper contrasts RubberBand
// against (§7). ASHA runs on a fixed-size cluster with no stage
// synchronization barriers: whenever a worker frees up, it either
// promotes a trial that sits in the top 1/η of its rung, or — and this is
// the behaviour the paper criticizes under a time constraint — samples a
// brand-new configuration. The cluster never shrinks, so late in the run
// most workers are evaluating fresh configurations that cannot finish
// before the deadline.
//
// The implementation drives the same simulated substrate as the
// RubberBand executor (virtual clock, provider billing, model learning
// curves), so costs and accuracies are directly comparable.
package asha

import (
	"fmt"
	"sort"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/searchspace"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// Config parameterizes one ASHA run.
type Config struct {
	// Model and Batch define the training workload.
	Model *model.Model
	Batch int
	// Space samples new configurations on demand.
	Space *searchspace.Space
	// MinIters (r), MaxIters (R) and Eta (η) define the rung ladder:
	// rung k completes at r·η^k cumulative iterations, capped at R.
	MinIters, MaxIters, Eta int
	// Workers is the fixed number of single-GPU evaluation slots.
	Workers int
	// Deadline is the wall-clock budget in seconds; no new work starts
	// after it passes, and in-flight chunks are abandoned.
	Deadline float64
	// Substrate.
	Provider *cloud.Provider
	Cluster  *cluster.Manager
	Clock    *vclock.Clock
	RNG      *stats.RNG
}

func (c *Config) validate() error {
	switch {
	case c.Model == nil || c.Space == nil:
		return fmt.Errorf("asha: nil model or space")
	case c.Provider == nil || c.Cluster == nil || c.Clock == nil || c.RNG == nil:
		return fmt.Errorf("asha: nil substrate component")
	case c.Batch < 1:
		return fmt.Errorf("asha: batch %d", c.Batch)
	case c.MinIters < 1 || c.MaxIters < c.MinIters:
		return fmt.Errorf("asha: bad rung budgets r=%d R=%d", c.MinIters, c.MaxIters)
	case c.Eta < 2:
		return fmt.Errorf("asha: eta %d", c.Eta)
	case c.Workers < 1:
		return fmt.Errorf("asha: %d workers", c.Workers)
	case c.Deadline <= 0:
		return fmt.Errorf("asha: deadline %v", c.Deadline)
	}
	return nil
}

// Result summarizes an ASHA run.
type Result struct {
	// JCT is the realized wall-clock duration (== deadline unless the
	// ladder completed early).
	JCT float64
	// Cost is the total billed cost of the fixed cluster.
	Cost float64
	// BestAccuracy and BestConfig describe the highest-rung, highest-
	// accuracy configuration observed.
	BestAccuracy float64
	BestConfig   searchspace.Config
	// Sampled counts configurations drawn; Promotions counts rung
	// advancements; Finished counts trials that reached the top rung.
	Sampled    int
	Promotions int
	Finished   int
}

// rungTarget returns the cumulative iterations completing rung k.
func (c *Config) rungTarget(k int) int {
	t := c.MinIters
	for i := 0; i < k; i++ {
		t *= c.Eta
		if t >= c.MaxIters {
			return c.MaxIters
		}
	}
	return t
}

// topRung returns the highest rung index (whose target is MaxIters).
func (c *Config) topRung() int {
	k := 0
	for c.rungTarget(k) < c.MaxIters {
		k++
	}
	return k
}

// trialState tracks one sampled configuration.
type trialState struct {
	id       int
	config   searchspace.Config
	rung     int // highest completed rung, -1 if none
	cumIters int
	acc      float64 // last observed accuracy
	running  bool
}

// Run executes ASHA to the deadline on a fixed cluster and returns the
// outcome.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg, byRung: make(map[int][]*trialState)}

	gpn := cfg.Cluster.GPUsPerNode()
	nodes := (cfg.Workers + gpn - 1) / gpn
	cfg.Cluster.ScaleUpTo(nodes)
	cfg.Cluster.WhenSize(nodes, func() {
		for i := 0; i < cfg.Workers; i++ {
			r.slotNext()
		}
	})
	cfg.Clock.RunUntil(func() bool { return r.idle == cfg.Workers && r.started })
	cfg.Cluster.ReleaseAll()

	res := &Result{
		JCT:        float64(r.lastEvent),
		Cost:       cfg.Provider.TotalCost(cfg.Clock.Now()),
		Sampled:    len(r.trials),
		Promotions: r.promotions,
		Finished:   r.finished,
	}
	// Best = highest rung, then highest accuracy.
	bestRung := -1
	for _, t := range r.trials {
		if t.rung > bestRung || (t.rung == bestRung && t.acc > res.BestAccuracy) {
			bestRung = t.rung
			res.BestAccuracy = t.acc
			res.BestConfig = t.config
		}
	}
	return res, nil
}

// runner carries the run's mutable state.
type runner struct {
	cfg        Config
	trials     []*trialState
	byRung     map[int][]*trialState // completed trials per rung
	idle       int
	started    bool
	promotions int
	finished   int
	lastEvent  vclock.Time
}

// slotNext gives one free worker its next assignment, or parks it when
// the deadline has passed or the ladder is exhausted.
func (r *runner) slotNext() {
	r.started = true
	now := r.cfg.Clock.Now()
	if float64(now) >= r.cfg.Deadline {
		r.idle++
		return
	}
	t := r.nextJob()
	if t == nil {
		r.idle++
		return
	}
	r.runChunk(t)
}

// nextJob implements ASHA's scheduling rule: promote the best promotable
// trial from the highest possible rung; otherwise sample a new
// configuration (the fixed-cluster behaviour under critique).
func (r *runner) nextJob() *trialState {
	top := r.cfg.topRung()
	for k := top - 1; k >= 0; k-- {
		done := r.byRung[k]
		if len(done) < r.cfg.Eta {
			continue // too few completions to define a top 1/η
		}
		// Rank every completion of rung k (including trials that have
		// since advanced) by the accuracy observed there; a candidate is
		// promotable if it sits in the top 1/η and is still *at* rung k
		// (not running, not already advanced).
		sorted := append([]*trialState(nil), done...)
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].acc != sorted[j].acc {
				return sorted[i].acc > sorted[j].acc
			}
			return sorted[i].id < sorted[j].id
		})
		quota := len(done) / r.cfg.Eta
		for i := 0; i < quota; i++ {
			t := sorted[i]
			if t.rung == k && !t.running {
				r.promotions++
				return t
			}
		}
	}
	// Nothing promotable: sample a fresh configuration.
	t := &trialState{
		id:     len(r.trials),
		config: r.cfg.Space.Sample(r.cfg.RNG),
		rung:   -1,
	}
	r.trials = append(r.trials, t)
	return t
}

// runChunk trains t from its current progress to the next rung target on
// one GPU, then reports and frees the slot.
func (r *runner) runChunk(t *trialState) {
	t.running = true
	nextRung := t.rung + 1
	target := r.cfg.rungTarget(nextRung)
	iters := target - t.cumIters
	var dur float64
	dist := r.cfg.Model.IterLatencyDist(r.cfg.Batch, 1, 1)
	for i := 0; i < iters; i++ {
		dur += dist.Sample(r.cfg.RNG)
	}
	r.cfg.Clock.After(dur, func() {
		now := r.cfg.Clock.Now()
		if float64(now) > r.cfg.Deadline {
			// The deadline passed mid-chunk: the result is unusable and
			// the slot parks. (The cluster was billed regardless.)
			t.running = false
			r.lastEvent = now
			r.idle++
			return
		}
		t.running = false
		t.cumIters = target
		t.rung = nextRung
		t.acc = r.cfg.Model.ObserveAccuracy(t.config, t.cumIters, r.cfg.RNG)
		r.byRung[nextRung] = append(r.byRung[nextRung], t)
		if target >= r.cfg.MaxIters {
			r.finished++
		}
		r.lastEvent = now
		// Meter usage for per-function accounting parity.
		r.meterUsage(dur)
		r.slotNext()
	})
}

// meterUsage attributes one GPU-chunk of usage to the least-loaded node —
// ASHA's single-GPU trials make exact placement immaterial, but the
// provider's per-function meter should still see the work.
func (r *runner) meterUsage(gpuSeconds float64) {
	nodes := r.cfg.Cluster.Ready()
	if len(nodes) == 0 {
		return
	}
	r.cfg.Provider.RecordUsage(nodes[0].Instance, gpuSeconds)
}
